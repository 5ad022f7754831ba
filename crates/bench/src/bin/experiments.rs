//! Runs the entire evaluation suite (every figure and table harness) in
//! sequence, the one-command reproduction of §8: Table 1, Fig. 3, the
//! `ladder` (Fig. 2, 7, 8, 9, Table 2 and the ablation from one set of
//! runs) and Fig. 1. Pass `--full` for paper-sized problems (slow);
//! default is the scaled suite.

use std::process::Command;

fn main() {
    let pass_through: Vec<String> = std::env::args().skip(1).collect();
    let bins = [
        "table1_workloads",
        "fig3_jastrow_functors",
        "ladder",
        "fig1_strong_scaling",
    ];
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
        .expect("cannot locate binary directory");

    let mut failed = Vec::new();
    for bin in bins {
        println!("\n############################################################");
        println!("## {bin}");
        println!("############################################################");
        let status = Command::new(exe_dir.join(bin)).args(&pass_through).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                failed.push(bin);
            }
            Err(e) => {
                eprintln!("{bin} failed to launch: {e}");
                failed.push(bin);
            }
        }
    }
    println!("\n############################################################");
    if failed.is_empty() {
        println!("## all {} experiments completed", bins.len());
    } else {
        println!("## FAILED: {failed:?}");
        std::process::exit(1);
    }
}
