//! The benchmark's timed binary (`--trace 0`). See the crate docs.

fn main() -> std::process::ExitCode {
    perfbench::cli_main(None)
}
