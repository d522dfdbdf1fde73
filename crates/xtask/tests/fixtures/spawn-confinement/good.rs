//@ path: crates/hh-sketches/src/pipeline.rs

pub fn run() {
    std::thread::scope(|scope| {
        scope.spawn(|| {});
    });
    let h = std::thread::spawn(|| 1u64);
    let _res = h.join();
}
