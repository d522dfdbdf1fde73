//@ path: crates/bench/src/bin/bench_regression_check.rs
//! Fixture: the regression gate, which the CI workflow must run.

#![deny(unsafe_code)]

fn main() {
    println!("bench regression gate passed");
}
