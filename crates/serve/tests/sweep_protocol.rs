//! Wire-protocol tests for the distributed sweep, against a real
//! coordinator over loopback TCP: the handshake / pull / complete
//! exchange, `Unit` round-trips over the real seeded sweep grid, the
//! malformed-frame rejection table (each bad frame drops the connection
//! and returns the dropped connection's lease to the queue), and the
//! lease-accounting invariant that every unit is completed exactly once.

use lncl_bench::timing::QualityCase;
use lncl_bench::{scenario_sweep_configs, Scale};
use lncl_crowd::scenario::{wire, ScenarioConfig};
use lncl_crowd::TaskKind;
use lncl_serve::sweep::frame::{write_frame, FRAME_VERSION, MAX_PAYLOAD};
use lncl_serve::sweep::proto::{recv_msg, send_msg, K_PULL, K_RESULT};
use lncl_serve::sweep::{Accounting, CoordConfig, Coordinator, Msg};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// A two-unit grid; the protocol tests fabricate the rows, so tiny
/// configs are enough and nothing is ever trained.
fn two_units() -> Vec<ScenarioConfig> {
    vec![
        ScenarioConfig::tiny(TaskKind::Classification).named("proto/a").with_seed(7),
        ScenarioConfig::tiny(TaskKind::Classification).named("proto/b").with_seed(8),
    ]
}

fn connect(coordinator: &Coordinator) -> TcpStream {
    let stream = TcpStream::connect(coordinator.addr()).expect("connect to the coordinator");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

/// Hello → Spec, asserting the advertised sweep parameters.
fn handshake(stream: &mut TcpStream, expect_units: usize) -> Msg {
    send_msg(stream, &Msg::Hello { worker: "test-client".into() }).unwrap();
    let spec = recv_msg(stream).unwrap().expect("a Spec reply");
    match &spec {
        Msg::Spec { units, .. } => assert_eq!(*units, expect_units),
        other => panic!("expected Spec, got {other:?}"),
    }
    spec
}

fn fake_rows(name: &str) -> Vec<QualityCase> {
    vec![QualityCase {
        scenario: name.to_string(),
        method: "mv".to_string(),
        metrics: vec![("headline".to_string(), 0.5)],
    }]
}

#[test]
fn handshake_pull_complete_and_dedupe_over_a_real_socket() {
    let configs = two_units();
    let mut cfg = CoordConfig::new(Scale::Tiny, 2);
    cfg.methods = Some(vec!["mv".into()]);
    cfg.drain = Duration::from_millis(200);
    let coordinator = Coordinator::start(&configs, cfg).unwrap();
    let mut stream = connect(&coordinator);
    match handshake(&mut stream, 2) {
        Msg::Spec { scale, epochs, methods, .. } => {
            assert_eq!(scale, Scale::Tiny);
            assert_eq!(epochs, 2);
            assert_eq!(methods, Some(vec!["mv".to_string()]));
        }
        _ => unreachable!(),
    }
    let mut first_hash = 0;
    for expected_index in 0..2usize {
        send_msg(&mut stream, &Msg::Pull).unwrap();
        let (index, hash, config) = match recv_msg(&mut stream).unwrap().unwrap() {
            Msg::Unit { index, hash, config } => (index, hash, config),
            other => panic!("expected Unit, got {other:?}"),
        };
        assert_eq!(index, expected_index, "units are issued in grid order");
        let decoded = wire::decode_config(&config).expect("unit config decodes");
        assert_eq!(decoded, configs[index], "the wire bytes reproduce the grid config");
        assert_eq!(decoded.content_hash(), hash, "the advertised hash matches the config");
        if index == 0 {
            first_hash = hash;
        }
        send_msg(&mut stream, &Msg::Result { index, hash, rows: fake_rows(&decoded.name), secs: 0.0 }).unwrap();
        match recv_msg(&mut stream).unwrap().unwrap() {
            Msg::Ack { index: acked, accepted } => {
                assert_eq!(acked, index);
                assert!(accepted, "first completion of unit {index} must be accepted");
            }
            other => panic!("expected Ack, got {other:?}"),
        }
        if index == 0 {
            // completing the same unit again must be rejected, not merged
            send_msg(&mut stream, &Msg::Result { index, hash, rows: fake_rows("dup"), secs: 0.0 }).unwrap();
            match recv_msg(&mut stream).unwrap().unwrap() {
                Msg::Ack { accepted, .. } => assert!(!accepted, "duplicate completion must be rejected"),
                other => panic!("expected Ack, got {other:?}"),
            }
        }
    }
    send_msg(&mut stream, &Msg::Pull).unwrap();
    assert_eq!(recv_msg(&mut stream).unwrap(), Some(Msg::Done), "an exhausted sweep answers Pull with Done");
    drop(stream);
    let outcome = coordinator.wait();
    assert_eq!(outcome.accounting, Accounting { completions_accepted: 2, duplicates_rejected: 1, reissues: 0 });
    assert_eq!(outcome.units, 2);
    // rows are merged in canonical order and the duplicate's rows are gone
    let scenarios: Vec<&str> = outcome.rows.iter().map(|r| r.scenario.as_str()).collect();
    assert_eq!(scenarios, vec!["proto/a", "proto/b"]);
    assert_ne!(first_hash, 0);
}

#[test]
fn unit_messages_round_trip_the_whole_seeded_sweep_grid() {
    // the real grid the sweep binaries serve, at two scales and the
    // binaries' grid seed: Unit encode → frame → decode must reproduce
    // config bytes and hash exactly
    for scale in [Scale::Tiny, Scale::Paper] {
        for (index, config) in scenario_sweep_configs(scale, 29).iter().enumerate() {
            let msg = Msg::Unit { index, hash: config.content_hash(), config: wire::encode_config(config) };
            let frame = lncl_serve::sweep::Frame { kind: msg.kind(), payload: msg.payload() };
            match Msg::decode(&frame).expect("unit frame decodes") {
                Msg::Unit { index: i, hash, config: bytes } => {
                    assert_eq!(i, index);
                    let decoded = wire::decode_config(&bytes).expect("config bytes decode");
                    assert_eq!(&decoded, config, "{} changed in transit", config.name);
                    assert_eq!(hash, decoded.content_hash());
                }
                other => panic!("expected Unit, got {other:?}"),
            }
        }
    }
}

#[test]
fn malformed_frames_drop_the_connection_and_reclaim_the_lease() {
    let configs = vec![ScenarioConfig::tiny(TaskKind::Classification).named("proto/reclaim").with_seed(9)];
    let mut cfg = CoordConfig::new(Scale::Tiny, 2);
    cfg.drain = Duration::from_millis(200);
    let coordinator = Coordinator::start(&configs, cfg).unwrap();

    let mut oversized = Vec::new();
    write_frame(&mut oversized, K_PULL, &[]).unwrap();
    oversized[4..8].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_be_bytes());
    let mut wrong_version = Vec::new();
    write_frame(&mut wrong_version, K_PULL, &[]).unwrap();
    wrong_version[2] = FRAME_VERSION + 1;
    let mut truncated = Vec::new();
    write_frame(&mut truncated, 99, b"payload that never arrives in full").unwrap();
    truncated.truncate(12);
    let bad_frames: Vec<(&str, Vec<u8>)> = vec![
        ("bad magic", b"XX\x01\x03\x00\x00\x00\x00".to_vec()),
        ("wrong version", wrong_version),
        ("oversized declaration", oversized),
        ("truncated payload", truncated),
        ("unknown kind", {
            let mut f = Vec::new();
            write_frame(&mut f, 99, b"{}").unwrap();
            f
        }),
        ("malformed payload", {
            let mut f = Vec::new();
            write_frame(&mut f, K_PULL, b"not empty").unwrap();
            f
        }),
        // 400k levels of nesting once overflowed the handler's stack and
        // aborted the coordinator instead of dropping one connection
        ("nesting bomb", {
            let mut f = Vec::new();
            write_frame(&mut f, K_RESULT, "[".repeat(400_000).as_bytes()).unwrap();
            f
        }),
    ];
    let attempts = bad_frames.len();
    for (what, bytes) in bad_frames {
        let mut stream = connect(&coordinator);
        handshake(&mut stream, 1);
        send_msg(&mut stream, &Msg::Pull).unwrap();
        let (index, hash) = match recv_msg(&mut stream).unwrap().unwrap() {
            Msg::Unit { index, hash, .. } => (index, hash),
            other => panic!("expected Unit, got {other:?}"),
        };
        assert_eq!((index, hash != 0), (0, true));
        // holding the lease, violate the protocol: the coordinator must
        // drop us (EOF or reset, not a reply) and reclaim the lease
        stream.write_all(&bytes).unwrap();
        stream.flush().unwrap();
        // half-close so a frame truncated mid-payload reads as EOF rather
        // than blocking the handler until the read times out
        stream.shutdown(Shutdown::Write).unwrap();
        match recv_msg(&mut stream) {
            Ok(None) | Err(_) => {}
            Ok(Some(reply)) => panic!("{what}: coordinator replied {reply:?} instead of dropping the connection"),
        }
    }
    // a well-behaved client now completes the much-reclaimed unit
    let mut stream = connect(&coordinator);
    handshake(&mut stream, 1);
    send_msg(&mut stream, &Msg::Pull).unwrap();
    let (index, hash, config) = match recv_msg(&mut stream).unwrap().unwrap() {
        Msg::Unit { index, hash, config } => (index, hash, config),
        other => panic!("expected Unit, got {other:?}"),
    };
    let name = wire::decode_config(&config).unwrap().name;
    send_msg(&mut stream, &Msg::Result { index, hash, rows: fake_rows(&name), secs: 0.0 }).unwrap();
    assert_eq!(recv_msg(&mut stream).unwrap(), Some(Msg::Ack { index, accepted: true }));
    send_msg(&mut stream, &Msg::Pull).unwrap();
    assert_eq!(recv_msg(&mut stream).unwrap(), Some(Msg::Done));
    drop(stream);
    let outcome = coordinator.wait();
    assert_eq!(
        outcome.accounting,
        Accounting { completions_accepted: 1, duplicates_rejected: 0, reissues: attempts },
        "every violated connection must have returned its lease"
    );
}

#[test]
fn results_for_unknown_units_or_wrong_hashes_are_a_violation() {
    let configs = two_units();
    let mut cfg = CoordConfig::new(Scale::Tiny, 2);
    cfg.drain = Duration::from_millis(200);
    let coordinator = Coordinator::start(&configs, cfg).unwrap();
    // wrong hash
    let mut stream = connect(&coordinator);
    handshake(&mut stream, 2);
    send_msg(&mut stream, &Msg::Result { index: 0, hash: 0xbad, rows: vec![], secs: 0.0 }).unwrap();
    assert!(matches!(recv_msg(&mut stream), Ok(None) | Err(_)), "wrong hash must drop the connection");
    // out-of-range index
    let mut stream = connect(&coordinator);
    handshake(&mut stream, 2);
    send_msg(&mut stream, &Msg::Result { index: 99, hash: 1, rows: vec![], secs: 0.0 }).unwrap();
    assert!(matches!(recv_msg(&mut stream), Ok(None) | Err(_)), "unknown index must drop the connection");
    // clean up: complete the sweep so wait() returns
    let mut stream = connect(&coordinator);
    handshake(&mut stream, 2);
    for _ in 0..2 {
        send_msg(&mut stream, &Msg::Pull).unwrap();
        let (index, hash, config) = match recv_msg(&mut stream).unwrap().unwrap() {
            Msg::Unit { index, hash, config } => (index, hash, config),
            other => panic!("expected Unit, got {other:?}"),
        };
        let name = wire::decode_config(&config).unwrap().name;
        send_msg(&mut stream, &Msg::Result { index, hash, rows: fake_rows(&name), secs: 0.0 }).unwrap();
        recv_msg(&mut stream).unwrap().unwrap();
    }
    drop(stream);
    let outcome = coordinator.wait();
    assert_eq!(outcome.accounting.completions_accepted, 2, "every unit completed exactly once");
    assert_eq!(outcome.accounting.duplicates_rejected, 0, "forged results never entered the ledger");
}
