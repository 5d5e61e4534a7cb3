//! PE-contract conformance: every wrapper must validate its ports, accept
//! control markers everywhere, tolerate flush-on-empty, and report sane
//! memory footprints. Table-driven across the whole registry so a new PE
//! cannot silently skip the contract.

mod registry;

use halo_pe::{InterfaceKind, Token};
use registry::registry;

/// A token of every interface kind (to probe mismatches).
fn sample_tokens() -> Vec<Token> {
    vec![
        Token::Sample(1),
        Token::Byte(1),
        Token::Flag(true),
        Token::Value(1),
        Token::Coeff(1),
        Token::Op(halo_kernels::LzOp::Literal(1)),
        Token::Prob {
            cum: 0,
            freq: 1,
            total: 2,
        },
        Token::Vector(Box::new(vec![1])),
    ]
}

#[test]
fn every_pe_rejects_mismatched_tokens_and_bad_ports() {
    for mut pe in registry() {
        let ports: Vec<InterfaceKind> = pe.input_ports().to_vec();
        assert!(!ports.is_empty(), "{}: no input ports", pe.kind());
        for (port, &expected) in ports.iter().enumerate() {
            for token in sample_tokens() {
                let kind = token.kind().expect("sample tokens are typed");
                let result = pe.push(port, token);
                if kind == expected {
                    assert!(result.is_ok(), "{} port {port} rejected {kind}", pe.kind());
                } else {
                    assert!(
                        result.is_err(),
                        "{} port {port} accepted {kind}, expects {expected}",
                        pe.kind()
                    );
                }
            }
        }
        // A port beyond the last must error.
        let bad_port = ports.len();
        assert!(
            pe.push(bad_port, Token::Sample(0)).is_err(),
            "{}: phantom port {bad_port}",
            pe.kind()
        );
    }
}

#[test]
fn every_pe_accepts_control_markers_on_every_port() {
    for mut pe in registry() {
        let n_ports = pe.input_ports().len();
        for port in 0..n_ports {
            assert!(
                pe.push(port, Token::BlockEnd { raw_len: 0 }).is_ok(),
                "{} port {port} rejected a control marker",
                pe.kind()
            );
        }
    }
}

#[test]
fn flush_on_empty_is_harmless_and_memory_is_sane() {
    for mut pe in registry() {
        pe.flush();
        pe.flush(); // idempotent
        let mem = pe.memory_bytes();
        assert!(mem < 1 << 20, "{}: implausible memory {mem}", pe.kind());
        // Output kind must be a stable answer.
        let _ = pe.output_kind();
    }
}

#[test]
fn drained_pes_return_none() {
    for mut pe in registry() {
        pe.flush();
        let mut drained = 0;
        while pe.pull().is_some() {
            drained += 1;
            assert!(drained < 1_000_000, "{}: pull never drains", pe.kind());
        }
        assert_eq!(pe.pull(), None, "{}", pe.kind());
    }
}
