//! The traced child: the same code as `cmbench` behind a counting
//! allocator, with `Sim::enable_tracing()` and slicing on.

#[global_allocator]
static ALLOC: benchmark::alloc::CountingAlloc = benchmark::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    benchmark::main(true)
}
