//! The benchmark runner and its untraced child: system allocator, no
//! tracing. Every end-to-end number comes from this binary.

fn main() -> std::process::ExitCode {
    benchmark::main(false)
}
