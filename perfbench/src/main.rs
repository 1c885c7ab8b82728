//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds` and prints every metric by name with
//! its unit, then, as the last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when
//! an output check failed, 2 on a usage error.

use perfbench::bench::Workload;
use perfbench::sys::EnvStamp;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let name = val()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                traced = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let env = EnvStamp::collect(args.seed, args.workload.traffic());
    let mut report = args.workload.run(args.seed, args.seconds, args.traced);
    if report.attempted == 0 {
        report.error("no connection was attempted");
    }
    let non_finite: Vec<&str> = report
        .values
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(name, _)| *name)
        .collect();
    for name in non_finite {
        report.error(format!("{name} is not a finite number"));
    }

    println!(
        "perfbench {} ({}): seed {}, {} s, traffic {}, parallelism {}, {}, commit {}",
        args.workload.name(),
        if args.traced { "traced" } else { "untraced" },
        env.seed,
        args.seconds,
        env.traffic,
        env.parallelism,
        env.rustc,
        env.commit,
    );
    for n in &report.notes {
        println!("  {n}");
    }
    println!(
        "  connections: {} attempted, {} failed",
        report.attempted, report.failed
    );
    print!("{}", report.render_table(args.traced));
    for e in &report.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    println!("{}", report.render_json(args.traced));
    if !report.correct() {
        std::process::exit(1);
    }
}
