//! The `benchmark` binary; everything lives in the library.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(graphmine_benchmark::cli::main(&args));
}
