//! Paper-accurate tier and system presets.
//!
//! Capacities come straight from the paper's text and figures:
//!
//! | Server | Threads/workers | Backlog / LiteQDepth | MaxSysQDepth |
//! |---|---|---|---|
//! | Apache | 150 × 2 processes | 128 | 278 → 428 |
//! | Tomcat | 150 (165 in NX=1) | 128 | 278 / 293 |
//! | MySQL | 100 | 128 | 228 |
//! | Nginx | 4 workers | 65535 | — |
//! | XTomcat | 8 workers | 65535 | — |
//! | XMySQL | 8 InnoDB threads | 2000 | — |
//!
//! The sync Tomcat's JDBC pool to MySQL is 50.

use crate::server::{LITE_Q_DEPTH_DEFAULT, LITE_Q_DEPTH_XMYSQL};
use ntier_des::time::SimDuration;

use crate::config::{SystemConfig, TierSpec};
use crate::topology::Topology;

/// Apache httpd (prefork): 150 threads per process, up to 2 processes
/// (spawn delay 1 s), backlog 128.
pub fn apache() -> TierSpec {
    TierSpec::sync("Apache", 150, 128).with_process_spawning(2, SimDuration::from_secs(1))
}

/// Tomcat (BIO connector): 150 threads, backlog 128, JDBC pool of 50.
pub fn tomcat() -> TierSpec {
    TierSpec::sync("Tomcat", 150, 128).with_downstream_pool(50)
}

/// The NX=1 Tomcat variant the paper measured at 165 threads
/// (`MaxSysQDepth` 293).
pub fn tomcat_nx1() -> TierSpec {
    TierSpec::sync("Tomcat", 165, 128).with_downstream_pool(50)
}

/// MySQL: 100 threads, backlog 128 (`MaxSysQDepth` 228).
pub fn mysql() -> TierSpec {
    TierSpec::sync("MySQL", 100, 128)
}

/// Nginx: event-driven, 4 workers, `LiteQDepth` 65535.
pub fn nginx() -> TierSpec {
    TierSpec::asynchronous("Nginx", LITE_Q_DEPTH_DEFAULT, 4)
}

/// XTomcat (Tomcat NIO + async MySQL connector): 8 workers,
/// `LiteQDepth` 65535, no connection-pool cap.
pub fn xtomcat() -> TierSpec {
    TierSpec::asynchronous("XTomcat", LITE_Q_DEPTH_DEFAULT, 8)
}

/// XMySQL (InnoDB thread concurrency 8 + wait queue 2000).
pub fn xmysql() -> TierSpec {
    TierSpec::asynchronous("XMySQL", LITE_Q_DEPTH_XMYSQL, 8)
}

/// NX=0: Apache–Tomcat–MySQL, the fully synchronous baseline.
pub fn sync_three_tier() -> SystemConfig {
    Topology::three_tier(apache(), tomcat(), mysql())
}

/// NX=1: Nginx–Tomcat–MySQL (§V-B).
pub fn nx1() -> SystemConfig {
    Topology::three_tier(nginx(), tomcat_nx1(), mysql())
}

/// NX=2: Nginx–XTomcat–MySQL (§V-C).
pub fn nx2() -> SystemConfig {
    Topology::three_tier(nginx(), xtomcat(), mysql())
}

/// NX=3: Nginx–XTomcat–XMySQL (§V-D) — the CTQO-free configuration.
pub fn nx3() -> SystemConfig {
    Topology::three_tier(nginx(), xtomcat(), xmysql())
}

/// The system with `nx` asynchronous tiers (0–3), replaced in the paper's
/// order: web first, then app, then db.
///
/// # Panics
///
/// Panics if `nx > 3`.
pub fn with_nx(nx: usize) -> SystemConfig {
    match nx {
        0 => sync_three_tier(),
        1 => nx1(),
        2 => nx2(),
        3 => nx3(),
        _ => panic!("a 3-tier system admits nx in 0..=3, got {nx}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_match_the_paper() {
        assert_eq!(apache().max_sys_q_depth(), Some(278));
        assert_eq!(apache().max_sys_q_depth_full(), Some(428));
        assert_eq!(tomcat().max_sys_q_depth(), Some(278));
        assert_eq!(tomcat_nx1().max_sys_q_depth(), Some(293));
        assert_eq!(mysql().max_sys_q_depth(), Some(228));
        assert_eq!(tomcat().downstream_pool, Some(50));
        assert_eq!(xtomcat().downstream_pool, None);
        assert_eq!(nginx().admission_capacity(), 65_535);
        assert_eq!(xmysql().admission_capacity(), 2_000);
    }

    #[test]
    fn nx_ladder() {
        for nx in 0..=3 {
            assert_eq!(with_nx(nx).nx(), nx);
        }
    }

    #[test]
    #[should_panic(expected = "nx in 0..=3")]
    fn nx_over_three_rejected() {
        let _ = with_nx(4);
    }
}
