//! Runs every experiment in the registry, printing each table; with
//! `--only <id>` it runs just that experiment, and with `--markdown
//! <path>` it additionally writes the markdown record used by
//! EXPERIMENTS.md. Pass `--quick` for reduced workloads. Exits non-zero
//! when any experiment fails.

#![deny(unsafe_code)]

use bench::{registry, Scale};

fn main() {
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .map(|i| args.get(i + 1).cloned().unwrap_or_default())
    };
    let md_path = value_of("--markdown");

    let mut experiments = registry();
    if let Some(only) = value_of("--only") {
        experiments.retain(|(id, _, _)| *id == only);
        if experiments.is_empty() {
            let ids: Vec<&str> = registry().iter().map(|(id, _, _)| *id).collect();
            eprintln!(
                "unknown experiment id {only:?}; valid ids: {}",
                ids.join(", ")
            );
            std::process::exit(2);
        }
    }

    let mut all_ok = true;
    let mut markdown = String::from("<!-- generated by `cargo run -p bench --release --bin run_all -- --markdown <path>` -->\n\n");
    for (id, desc, runner) in experiments {
        eprintln!(">> running {id}: {desc}");
        let start = std::time::Instant::now();
        let report = runner(scale);
        let secs = start.elapsed().as_secs_f64();
        println!("{}", report.render());
        eprintln!(
            "   {} in {secs:.1}s: {}",
            if report.ok { "ok" } else { "FAILED" },
            report.verdict
        );
        markdown.push_str(&report.to_markdown());
        all_ok &= report.ok;
    }

    if let Some(path) = md_path {
        std::fs::write(&path, &markdown).expect("write markdown output");
        eprintln!("markdown written to {path}");
    }

    if !all_ok {
        eprintln!("SOME EXPERIMENTS FAILED");
        std::process::exit(1);
    }
    eprintln!("all experiments passed");
}
