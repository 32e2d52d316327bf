//! `LiveRecord::parse` reads lines from files and sockets it does not
//! control: on any input it returns a record or an error, never panics.

use gscalar_live::LiveRecord;
use proptest::prelude::*;

/// One record of every variant.
fn records() -> Vec<LiveRecord> {
    let job = || "probe/BP".to_string();
    vec![
        LiveRecord::RunStart {
            run: 3,
            workload: "backprop".into(),
            arch: "G-Scalar".into(),
            sms: 15,
            t_s: 0.25,
        },
        LiveRecord::Snapshot {
            run: 3,
            cycle: 8192,
            ipc: 10.5,
            issued: 4096,
            warp_instrs: 4000,
            scalar_rate: 0.25,
            compression_ratio: 1.5,
            mshr_mean: 2.5,
            mshr_max: 8,
            per_sm_ipc: vec![0.5, 0.75],
            stalls: [("mem".to_string(), 100u64), ("none".to_string(), 0)]
                .into_iter()
                .collect(),
            pool: (0, 0, 0),
            t_s: 0.5,
        },
        LiveRecord::RunEnd {
            run: 3,
            cycle: 20480,
            ipc: 12.5,
            warp_instrs: 9000,
            t_s: 1.5,
        },
        LiveRecord::SweepStart {
            jobs: 4,
            budget_cycles: 1000,
            t_s: 0.0,
        },
        LiveRecord::JobStart {
            job: job(),
            budget: 500,
            t_s: 0.0,
        },
        LiveRecord::JobRetry {
            job: job(),
            attempt: 1,
            kind: "panic".into(),
            message: "boom \"quoted\" \\ \u{e9}".into(),
            t_s: 0.0,
        },
        LiveRecord::JobEnd {
            job: job(),
            status: "ok".into(),
            attempts: 1,
            sim_cycles: 1234,
            wall_s: 0.5,
            done: 1,
            total: 4,
            progress: 0.25,
            eta_s: 1.5,
            t_s: 0.5,
        },
        LiveRecord::SweepEnd {
            done: 4,
            total: 4,
            failed: 0,
            wall_s: 2.0,
            t_s: 2.0,
        },
        LiveRecord::StreamEnd {
            records: 9,
            dropped: 0,
            t_s: 2.0,
        },
    ]
}

/// Characters that reach deep into the JSON and record parsers.
const ALPHABET: &[u8] = b"{}[]:,\"\\ -.0123456789eEtrufalsnv\"type\"run_start";

#[test]
fn every_variant_round_trips() {
    for r in records() {
        assert_eq!(LiveRecord::parse(&r.to_json_line()), Ok(r));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = LiveRecord::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_shaped_text_never_panics(
        picks in proptest::collection::vec(0..ALPHABET.len(), 0..256),
    ) {
        let text: String = picks.iter().map(|&i| char::from(ALPHABET[i])).collect();
        let _ = LiveRecord::parse(&text);
    }

    #[test]
    fn truncated_lines_are_errors(variant in 0usize..9, cut in any::<usize>()) {
        let line = records()[variant].to_json_line();
        let cut = cut % line.len();
        if line.is_char_boundary(cut) {
            prop_assert!(LiveRecord::parse(&line[..cut]).is_err(), "{}", &line[..cut]);
        }
    }

    #[test]
    fn flipped_bytes_never_panic(
        variant in 0usize..9,
        at in any::<usize>(),
        bit in 0u32..8,
    ) {
        let mut bytes = records()[variant].to_json_line().into_bytes();
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        let _ = LiveRecord::parse(&String::from_utf8_lossy(&bytes));
    }
}
