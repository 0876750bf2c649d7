//! The benchmark's traced binary (`--trace 1`): the same program linked
//! with `decor-bench`'s counting global allocator, so the traced pass can
//! report allocation counts. The timed pass never runs under it.

fn allocs() -> u64 {
    decor_bench::alloc_counter::snapshot().allocs
}

fn main() -> std::process::ExitCode {
    perfbench::cli_main(Some(allocs))
}
