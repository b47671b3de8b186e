//! Equivalence of the typed checkpoint reader and writer with the serde
//! derive path they replaced, kept here (test-only) as the reference.
//!
//! Every input must give the same result from both readers: `Ok` with
//! bit-identical parameters, or an `Err` of the same [`NetworkError`]
//! variant (with the same message for `InvalidCheckpoint`, whose checks
//! both paths share). The typed writer must produce the derive's text byte
//! for byte, or checkpoint hashes would change.

use nrpm_linalg::Matrix;
use nrpm_nn::{Activation, DenseLayer, Network, NetworkConfig, NetworkError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::Serialize;
use std::mem::discriminant;

/// The checkpoint document as the derives see it, so parameters the
/// public API cannot put into a [`Network`] (non-finite ones, shapes that
/// do not chain) can still be written through the reference path.
#[derive(Serialize)]
struct Document {
    layers: Vec<DenseLayer>,
}

/// The reader this workspace used before: the vendored `serde_json` value
/// tree, the derives, then [`Network::validate`].
fn reference(bytes: &[u8]) -> Result<Network, NetworkError> {
    let io = |e: &dyn std::fmt::Display| NetworkError::Io(e.to_string());
    let text = std::str::from_utf8(bytes).map_err(|e| io(&e))?;
    let network: Network = serde_json::from_str(text).map_err(|e| io(&e))?;
    network.validate()?;
    Ok(network)
}

fn assert_same_bits(typed: &Network, reference: &Network, input: &[u8]) {
    let context = || {
        String::from_utf8_lossy(input)
            .chars()
            .take(200)
            .collect::<String>()
    };
    assert_eq!(
        typed.layers().len(),
        reference.layers().len(),
        "{}",
        context()
    );
    for (a, b) in typed.layers().iter().zip(reference.layers()) {
        assert_eq!(a.weights.shape(), b.weights.shape(), "{}", context());
        assert_eq!(a.activation, b.activation, "{}", context());
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(a.weights.as_slice()),
            bits(b.weights.as_slice()),
            "{}",
            context()
        );
        assert_eq!(bits(&a.biases), bits(&b.biases), "{}", context());
    }
}

/// Reads `input` with both readers, asserts they agree, and returns the
/// typed reader's result.
fn assert_equivalent(input: &[u8]) -> Result<Network, NetworkError> {
    let typed = Network::from_json(input);
    let expected = reference(input);
    match (&typed, &expected) {
        (Ok(a), Ok(b)) => assert_same_bits(a, b, input),
        (Err(NetworkError::InvalidCheckpoint(a)), Err(NetworkError::InvalidCheckpoint(b))) => {
            assert_eq!(a, b)
        }
        (Err(a), Err(b)) => assert_eq!(
            discriminant(a),
            discriminant(b),
            "typed {a:?} vs reference {b:?} on {:?}",
            String::from_utf8_lossy(input)
        ),
        (a, b) => panic!(
            "typed {:?} vs reference {:?} on {:?}",
            a.as_ref().err(),
            b.as_ref().err(),
            String::from_utf8_lossy(input)
        ),
    }
    typed
}

/// A parameter: mostly weight-sized, sometimes any bit pattern (huge,
/// subnormal, signed zero), an integer, or — rarely — not finite.
fn parameter(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..256) {
        0 => f64::NAN,
        1 => f64::NEG_INFINITY,
        2..=15 => f64::from_bits(rng.next_u64()),
        16..=23 => -0.0,
        24..=31 => f64::from(rng.gen_range(-3i32..4)),
        _ => rng.gen_range(-1.0..1.0),
    }
}

/// A document of random shape and parameters; consecutive layers chain.
fn document(sizes: &[usize], seed: u64) -> Document {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = sizes
        .windows(2)
        .map(|pair| {
            let (rows, cols) = (pair[0], pair[1]);
            let data = (0..rows * cols).map(|_| parameter(&mut rng)).collect();
            DenseLayer {
                weights: Matrix::from_vec(rows, cols, data),
                biases: (0..cols).map(|_| parameter(&mut rng)).collect(),
                activation: if rng.gen_bool(0.5) {
                    Activation::Tanh
                } else {
                    Activation::Identity
                },
            }
        })
        .collect();
    Document { layers }
}

fn architectures() -> impl Strategy<Value = (Vec<usize>, u64)> {
    (
        1usize..5,
        prop::collection::vec(1usize..7, 0..3),
        1usize..6,
        0u64..u64::MAX,
    )
        .prop_map(|(input, hidden, output, seed)| {
            let mut sizes = vec![input];
            sizes.extend(hidden);
            sizes.push(output);
            (sizes, seed)
        })
}

/// The document in the compact form the writer produces and in the
/// pretty form an operator's tooling might leave.
fn both_forms(doc: &Document) -> [String; 2] {
    [
        serde_json::to_string(doc).unwrap(),
        serde_json::to_string_pretty(doc).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whole documents read alike, and a readable one writes back to the
    /// reference writer's bytes.
    #[test]
    fn documents_read_alike_and_write_back_byte_for_byte(arch in architectures()) {
        let (sizes, seed) = arch;
        let doc = document(&sizes, seed);
        let [compact, pretty] = both_forms(&doc);
        let _ = assert_equivalent(pretty.as_bytes());
        if let Ok(network) = assert_equivalent(compact.as_bytes()) {
            prop_assert_eq!(network.to_json(), serde_json::to_string(&network).unwrap());
            prop_assert_eq!(network.to_json(), compact);
        }
    }

    /// A freshly initialized network writes what the derive writes.
    #[test]
    fn fresh_networks_write_what_the_derive_writes(arch in architectures()) {
        let (sizes, seed) = arch;
        let network = Network::new(&NetworkConfig::new(&sizes), seed);
        prop_assert_eq!(network.to_json(), serde_json::to_string(&network).unwrap());
    }

    /// One byte replaced anywhere, by any byte (UTF-8 or not).
    #[test]
    fn flipped_bytes_read_alike(arch in architectures(), pos in 0.0..1.0f64, byte in 0u8..=255) {
        let (sizes, seed) = arch;
        for text in both_forms(&document(&sizes, seed)) {
            let mut bytes = text.into_bytes();
            let at = ((bytes.len() as f64 * pos) as usize).min(bytes.len() - 1);
            bytes[at] = byte;
            let _ = assert_equivalent(&bytes);
        }
    }

    /// Every strict prefix fails alike.
    #[test]
    fn truncations_read_alike(arch in architectures(), frac in 0.0..1.0f64) {
        let (sizes, seed) = arch;
        for text in both_forms(&document(&sizes, seed)) {
            let cut = ((text.len() as f64 * frac) as usize).min(text.len() - 1);
            prop_assert!(assert_equivalent(&text.as_bytes()[..cut]).is_err());
        }
    }
}

fn layer(weights: &str, rest: &str) -> String {
    format!(r#"{{"layers":[{{"weights":{{{weights}}}{rest}}}]}}"#)
}

fn ok(input: &str) -> Network {
    assert_equivalent(input.as_bytes()).unwrap_or_else(|e| panic!("{input}: {e}"))
}

fn io(input: impl AsRef<[u8]>) {
    let input = input.as_ref();
    let result = assert_equivalent(input);
    assert!(
        matches!(result, Err(NetworkError::Io(_))),
        "{:?}: {:?}",
        String::from_utf8_lossy(input),
        result.err()
    );
}

fn invalid(input: &str) {
    let result = assert_equivalent(input.as_bytes());
    assert!(
        matches!(result, Err(NetworkError::InvalidCheckpoint(_))),
        "{input}: {:?}",
        result.err()
    );
}

const TAIL: &str = r#","biases":[1],"activation":"Tanh""#;

#[test]
fn numbers_read_as_the_value_tree_read_them() {
    // `-0` is an integer literal: read as i64 0, so +0.0; `-0.0` keeps
    // its sign.
    let net = ok(&layer(r#""rows":3,"cols":1,"data":[-0,-0.0,0.5]"#, TAIL));
    let bits: Vec<u64> = net.layers()[0]
        .weights
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(
        bits,
        [0.0f64.to_bits(), (-0.0f64).to_bits(), 0.5f64.to_bits()]
    );
    ok(&layer(
        r#""rows":4,"cols":1,"data":[7,-7,007,123456789012345678901234567890]"#,
        TAIL,
    ));
    ok(&layer(r#""rows":2,"cols":1,"data":[1E-2,2e+3]"#, TAIL));
    let _ = assert_equivalent(layer(r#""rows":2,"cols":1,"data":[-.5,5.]"#, TAIL).as_bytes());
    ok(&layer(
        r#""rows":2,"cols":1,"data":[18446744073709551615,-9223372036854775808]"#,
        TAIL,
    ));
    invalid(&layer(r#""rows":1,"cols":1,"data":[1e400]"#, TAIL));
    for bad in [
        "1.2.3", "-", "+1", ".5", "1e", "0x1", "NaN", "[1]", "\"1\"", "true",
    ] {
        io(layer(&format!(r#""rows":1,"cols":1,"data":[{bad}]"#), TAIL));
    }
    io(layer(r#""rows":2,"cols":1,"data":[0.5,]"#, TAIL));
}

#[test]
fn dimensions_accept_any_non_negative_integral_number() {
    ok(&layer(r#""rows":2.0,"cols":1e0,"data":[0.5,0.25]"#, TAIL));
    ok(&layer(r#""rows":2E0,"cols":1.0,"data":[0.5,0.25]"#, TAIL));
    invalid(&layer(r#""rows":-0,"cols":1,"data":[]"#, TAIL));
    invalid(&layer(r#""rows":-0.0,"cols":1,"data":[]"#, TAIL));
    for bad in ["2.5", "-1", "1e20", "\"2\"", "null", "[2]"] {
        io(layer(
            &format!(r#""rows":{bad},"cols":1,"data":[0.5,0.25]"#),
            TAIL,
        ));
    }
}

#[test]
fn keys_may_be_reordered_unknown_or_repeated() {
    ok(
        r#"{"layers":[{"activation":"Tanh","biases":[1],"weights":{"data":[0.5,0.25],"cols":1,"rows":2}}]}"#,
    );
    ok(
        r#"{"version":3,"layers":[{"weights":{"rows":2,"cols":1,"data":[0.5,0.25],"dtype":"f64"},"biases":[1],"activation":"Tanh","note":{"a":[1,{"b":null}],"c":"xé\ud800"}}],"meta":[true,false,null,-1.5e3]}"#,
    );
    // The first of a repeated key wins; a later one need only be JSON.
    ok(&layer(
        r#""rows":2,"cols":1,"data":[0.5,0.25],"rows":"x""#,
        TAIL,
    ));
    io(layer(
        r#""rows":"x","cols":1,"data":[0.5,0.25],"rows":2"#,
        TAIL,
    ));
    let doc = layer(r#""rows":1,"cols":1,"data":[0.5]"#, TAIL);
    let open = &doc[..doc.len() - 1];
    ok(&format!(r#"{open},"layers":{{"any":[]}}}}"#));
    io(format!(r#"{open},"layers":[}}"#));
    io(layer(
        r#""rows":2,"cols":1,"data":[0.5,0.25],"rows":[oops]"#,
        TAIL,
    ));
    io(r#"{"layers":[{"biases":[1],"activation":"Tanh"}]}"#);
    io(r#"{"layers":[{"weights":{"rows":1,"data":[1]},"biases":[1],"activation":"Tanh"}]}"#);
    io("{}");
}

#[test]
fn activations_are_names_and_may_be_escaped() {
    let net = ok(&layer(
        r#""rows":1,"cols":1,"data":[0.5]"#,
        r#","biases":[1],"activation":"Identity""#,
    ));
    assert_eq!(net.layers()[0].activation, Activation::Identity);
    ok(&layer(
        r#""rows":1,"cols":1,"data":[0.5]"#,
        r#","biases":[1],"activation":"Tanh""#,
    ));
    for bad in [
        r#""ReLU""#,
        r#"{"Tanh":null}"#,
        r#"["Tanh"]"#,
        "null",
        r#""tanh""#,
    ] {
        io(layer(
            r#""rows":1,"cols":1,"data":[0.5]"#,
            &format!(r#","biases":[1],"activation":{bad}"#),
        ));
    }
    io(layer(
        r#""rows":1,"cols":1,"data":[0.5]"#,
        r#","biases":[1],"activation":"T\u00"#,
    ));
}

#[test]
fn structural_faults_are_invalid_checkpoints() {
    // `null` reads as NaN, which the checks refuse.
    invalid(&layer(r#""rows":2,"cols":1,"data":[null,0.5]"#, TAIL));
    invalid(&layer(
        r#""rows":1,"cols":1,"data":[0.5]"#,
        r#","biases":[null],"activation":"Tanh""#,
    ));
    invalid(r#"{"layers":[]}"#);
    invalid(&layer(r#""rows":3,"cols":1,"data":[0.5,0.25]"#, TAIL));
    invalid(&layer(
        r#""rows":1,"cols":1,"data":[0.5]"#,
        r#","biases":[1,2],"activation":"Tanh""#,
    ));
    invalid(
        r#"{"layers":[{"weights":{"rows":1,"cols":2,"data":[1,2]},"biases":[0,0],"activation":"Tanh"},{"weights":{"rows":3,"cols":1,"data":[1,2,3]},"biases":[0],"activation":"Identity"}]}"#,
    );
}

#[test]
fn a_huge_declared_shape_reserves_no_more_than_the_input_holds() {
    // Reserving rows × cols up front would abort the process; the reader
    // caps its reservation by the bytes that remain and refuses the shape.
    invalid(&layer(
        r#""rows":1000000000000000,"cols":1000000000,"data":[0.5]"#,
        TAIL,
    ));
    invalid(&layer(
        r#""rows":18446744073709551615,"cols":2,"data":[0.5]"#,
        TAIL,
    ));
    invalid(&layer(
        r#""rows":4294967296,"cols":4294967296,"data":[0.5]"#,
        TAIL,
    ));
}

#[test]
fn documents_must_be_one_object() {
    for bad in [
        "",
        " ",
        "null",
        "[]",
        "\"layers\"",
        "{\"layers\":[1]}",
        "{\"layers\":{}}",
    ] {
        io(bad);
    }
    let good = layer(r#""rows":1,"cols":1,"data":[0.5]"#, TAIL);
    ok(&format!(
        "\n\t {} \r\n",
        good.replace(':', " : ").replace(',', " ,\n")
    ));
    io(format!("{good}x"));
    io(format!("{good}{good}"));
}

#[test]
fn bytes_that_are_not_utf8_fail_alike() {
    let good = layer(r#""rows":1,"cols":1,"data":[0.5]"#, TAIL);
    let mut in_key = good.clone().into_bytes();
    in_key.splice(1..1, b"\"\xff\xfe\":1,".iter().copied());
    io(&in_key);
    let mut in_name = good.replacen("Tanh", "T\u{e9}nh", 1).into_bytes();
    let at = in_name.iter().position(|&b| b == 0xc3).unwrap();
    in_name[at + 1] = b'n';
    io(&in_name);
}

/// The value tree used to recurse without limit, so deep enough nesting
/// overflowed its stack (a `cluster_rollout` payload could abort the
/// router). Both readers now share the vendored reader's depth limit and
/// refuse anything nested deeper than 64 levels.
#[test]
fn deep_nesting_is_refused_not_a_stack_overflow() {
    let good = layer(r#""rows":1,"cols":1,"data":[0.5]"#, TAIL);
    let nested = |depth: usize| {
        format!(
            r#"{{"x":{}{},{}"#,
            "[".repeat(depth),
            "]".repeat(depth),
            &good[1..]
        )
    };
    // The document's own object is the first level.
    ok(&nested(63));
    for depth in [64, 1_000_000] {
        let result = assert_equivalent(nested(depth).as_bytes());
        assert!(
            matches!(result, Err(NetworkError::Io(ref m)) if m.contains("nesting")),
            "depth {depth}: {:?}",
            result.err()
        );
    }
    let objects = format!(
        r#"{{"x":{}1{},{}"#,
        r#"{"a":"#.repeat(100),
        "}".repeat(100),
        &good[1..]
    );
    assert!(Network::from_json(&objects).is_err());
}
