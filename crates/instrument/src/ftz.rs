//! Flush-to-zero / denormals-are-zero control.
//!
//! The paper's builds used the Intel compilers with `-O3`, which enable
//! FTZ+DAZ by default — subnormal numbers never occur on their hardware
//! runs. Rust (LLVM) keeps IEEE subnormals, and the single-precision
//! Slater inverses produced by Sherman-Morrison chains can wander into the
//! subnormal range, where x86 takes ~100-cycle microcode assists and the
//! `DetUpdate` kernel falls off a cliff. Calling [`enable_ftz`] at the
//! start of every compute thread reproduces the paper's floating-point
//! environment.

/// Enables flush-to-zero (FTZ) and denormals-are-zero (DAZ) in the
/// calling thread's MXCSR. No-op on non-x86_64 targets.
#[allow(unsafe_code, reason = "MXCSR is reachable only through `asm!`")]
pub fn enable_ftz() {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        // SAFETY: stmxcsr/ldmxcsr write to / read from a valid, aligned
        // u32 on the stack and only toggle the FTZ/DAZ bits of the calling
        // thread's MXCSR. Changing those bits alters rounding of
        // subnormals (the whole point) but cannot violate memory safety,
        // and the register is thread-local so no other thread observes it.
        let mut mxcsr: u32 = 0;
        std::arch::asm!("stmxcsr [{}]", in(reg) &raw mut mxcsr, options(nostack));
        mxcsr |= (1 << 15) | (1 << 6); // FTZ | DAZ
        std::arch::asm!("ldmxcsr [{}]", in(reg) &raw const mxcsr, options(nostack));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ftz_flushes_subnormals() {
        enable_ftz();
        let tiny = f32::MIN_POSITIVE / 2.0; // subnormal
        let result = std::hint::black_box(tiny) * std::hint::black_box(0.5f32);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(result, 0.0, "FTZ should flush subnormal products");
        #[cfg(not(target_arch = "x86_64"))]
        let _ = result;
    }
}
