//! Property tests for [`TimerGens`] cancellation/regeneration semantics
//! under many interleaved flows — the contract the connection mux leans
//! on: timers are fire-and-forget at the driver (nothing is ever
//! cancelled in the timer heap), so *correct stale-token filtering at the
//! endpoint is the only thing standing between a re-armed timer and a
//! double fire*.
//!
//! The model: a pool of flows, each owning an independent `TimerGens<4>`,
//! with arming operations interleaved arbitrarily across flows and kinds
//! (exactly what the mux produces when many connections share one timer
//! heap).

use proptest::prelude::*;
use qtp_core::TimerGens;

const FLOWS: usize = 8;
const KINDS: u64 = 4;

/// An arbitrary interleaving of arm operations across flows and kinds.
fn arb_ops() -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((0usize..FLOWS, 0u64..KINDS), 1..200)
}

proptest! {
    #[test]
    fn only_the_latest_generation_per_flow_and_kind_is_live(ops in arb_ops()) {
        let mut gens: Vec<TimerGens<4>> = (0..FLOWS).map(|_| TimerGens::new()).collect();
        // Every token ever issued, tagged with its (flow, kind).
        let mut issued: Vec<(usize, u64, u64)> = Vec::new();
        // Latest token per (flow, kind).
        let mut latest = [[None::<u64>; KINDS as usize]; FLOWS];

        for (flow, kind) in ops {
            let token = gens[flow].arm(kind);
            issued.push((flow, kind, token));
            latest[flow][kind as usize] = Some(token);
        }

        for (flow, kind, token) in issued {
            let expect_live = latest[flow][kind as usize] == Some(token);
            prop_assert_eq!(
                gens[flow].live(token),
                expect_live.then_some(kind),
                "flow {} kind {} token {:#x}: exactly the latest generation is live",
                flow, kind, token
            );
        }
    }

    #[test]
    fn regeneration_is_permanent(ops in arb_ops(), kind in 0u64..KINDS) {
        // Once a token is superseded it stays stale through any further
        // interleaving of arms on any kind (no generation reuse).
        let mut g: TimerGens<4> = TimerGens::new();
        let stale = g.arm(kind);
        let fresh = g.arm(kind);
        prop_assert_eq!(g.live(stale), None);
        for (_, k) in ops {
            if k != kind {
                g.arm(k);
                prop_assert_eq!(g.live(fresh), Some(kind), "other kinds are independent");
            }
            prop_assert_eq!(g.live(stale), None, "superseded token never revives");
        }
    }

    #[test]
    fn foreign_kinds_are_never_live(ops in arb_ops(), token in any::<u64>()) {
        // An endpoint with fewer kinds rejects any token whose kind field
        // is out of range, whatever generation it claims.
        let mut g: TimerGens<2> = TimerGens::new();
        for (_, k) in ops {
            g.arm(k % 2);
        }
        if token & 0b11 >= 2 {
            prop_assert_eq!(g.live(token), None);
        }
    }

    #[test]
    fn tokens_are_unique_across_a_flow_history(ops in arb_ops()) {
        // No two arms on one flow ever hand out the same token — the
        // uniqueness the timer heap's fire-and-forget delivery relies on.
        let mut gens: Vec<TimerGens<4>> = (0..FLOWS).map(|_| TimerGens::new()).collect();
        let mut seen: Vec<std::collections::BTreeSet<u64>> =
            (0..FLOWS).map(|_| Default::default()).collect();
        for (flow, kind) in ops {
            let token = gens[flow].arm(kind);
            prop_assert!(
                seen[flow].insert(token),
                "flow {} reissued token {:#x}", flow, token
            );
        }
    }
}
