//! Helpers shared by the integration tests.

/// Proptest cases for a block written for `n`: `n`, or `PROPTEST_CASES`
/// when that asks for more. `ProptestConfig::with_cases` alone ignores the
/// variable, so a block built from it would run its fixed count even in a
/// job that raises `PROPTEST_CASES`.
pub fn cases(n: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map_or(n, |env| env.max(n))
}
