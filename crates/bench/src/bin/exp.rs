//! `exp <name> [flags]` — the one experiment binary. The experiments are
//! the rows of [`ssr_bench::EXPERIMENTS`]; running without a name lists
//! them.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ssr_bench::run(&argv));
}
