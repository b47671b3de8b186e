//! The checkpoint format, read and written without a value tree.
//!
//! A checkpoint is the JSON text
//! `{"layers":[{"weights":{"rows":R,"cols":C,"data":[…]},"biases":[…],"activation":"Tanh"},…]}`,
//! the shape the serde derives on [`Network`], [`DenseLayer`] and `Matrix`
//! give it. [`read`] parses that text straight into each layer's
//! `Vec<f64>`, and [`write`] formats each number straight into one
//! `String`. Neither builds a `serde::Value` per number, so loading the
//! paper network holds its text and its weights, not also a tree about
//! four times the size of the weights. The tokens (strings, numbers,
//! nesting, skipped values) are read by the vendored
//! [`serde_json::Reader`], and numbers are written by
//! [`serde_json::write_f64`], the same steps the derive path takes, so the
//! two cannot drift apart. This module only walks the checkpoint's shape.
//!
//! Both keep the derived format's contract:
//! - a number is written in its `{:?}` form, or `null` when it is not
//!   finite, so the text is byte for byte what the derive writes;
//! - a number is read as an integer literal as `u64`, then `i64` (so `-0`
//!   reads as +0.0), anything else with `str::parse::<f64>`, and `null` as
//!   NaN. Every weight therefore survives a round trip bitwise;
//! - keys may come in any order, unknown keys are skipped, and a repeated
//!   key keeps its first value (a later one must still be valid JSON).
//!   Arrays and objects nest at most [`serde_json::MAX_DEPTH`] levels;
//! - a dimension is any number that is a non-negative integer (`2`, `2.0`,
//!   `2e0`);
//! - a syntax or type error is [`NetworkError::Io`], and a well-formed
//!   checkpoint that breaks a structural invariant is
//!   [`NetworkError::InvalidCheckpoint`] ([`check_layers`], the checks of
//!   [`Network::validate`]).

use crate::activation::Activation;
use crate::layer::DenseLayer;
use crate::network::{check_layers, LayerParts, Network, NetworkError};
use nrpm_linalg::Matrix;
use serde::Value;
use serde_json::{Error, Reader};
use std::fmt::Write as _;

/// Each activation under the name a checkpoint gives it.
const ACTIVATIONS: [(&str, Activation); 2] = [
    ("Tanh", Activation::Tanh),
    ("Identity", Activation::Identity),
];

/// The longest `{:?}` form of an `f64`, e.g. `-2.2250738585072014e-308`.
const MAX_NUMBER_LEN: usize = 24;

/// An upper bound on one layer's text besides its numbers: keys,
/// brackets, two 20-digit dimensions and an activation name.
const MAX_LAYER_FRAME_LEN: usize = 128;

/// Writes the checkpoint text of `layers` into one `String`, reserved
/// once for the longest text those layers can have.
pub(crate) fn write(layers: &[DenseLayer]) -> String {
    let numbers: usize = layers.iter().map(DenseLayer::num_parameters).sum();
    let mut out = String::with_capacity(
        numbers * (MAX_NUMBER_LEN + 1) + layers.len() * MAX_LAYER_FRAME_LEN + 16,
    );
    out.push_str(r#"{"layers":["#);
    for (i, layer) in layers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (rows, cols) = layer.weights.shape();
        let _ = write!(out, r#"{{"weights":{{"rows":{rows},"cols":{cols},"data":"#);
        write_numbers(&mut out, layer.weights.as_slice());
        out.push_str(r#"},"biases":"#);
        write_numbers(&mut out, &layer.biases);
        let name = ACTIVATIONS
            .iter()
            .find(|(_, a)| *a == layer.activation)
            .map_or("", |(name, _)| name);
        let _ = write!(out, r#","activation":"{name}"}}"#);
    }
    out.push_str("]}");
    out
}

fn write_numbers(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        serde_json::write_f64(v, out);
    }
    out.push(']');
}

/// Parses checkpoint bytes into a network, then checks it as
/// [`Network::validate`] does.
pub(crate) fn read(bytes: &[u8]) -> Result<Network, NetworkError> {
    let layers = parse(&mut Reader::new(bytes)).map_err(|e| NetworkError::Io(e.to_string()))?;
    check_layers(layers.iter().map(|l| LayerParts {
        rows: l.rows,
        cols: l.cols,
        weights: &l.data,
        biases: &l.biases,
    }))?;
    Ok(Network::from_layers(
        layers
            .into_iter()
            .map(|l| DenseLayer {
                weights: Matrix::from_vec(l.rows, l.cols, l.data),
                biases: l.biases,
                activation: l.activation,
            })
            .collect(),
    ))
}

/// One layer as read, before its shapes are checked.
struct RawLayer {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
    biases: Vec<f64>,
    activation: Activation,
}

fn parse(r: &mut Reader) -> Result<Vec<RawLayer>, Error> {
    r.skip_ws();
    let mut layers = None;
    r.object(|r, key| {
        if key != "layers" || layers.is_some() {
            return Ok(false);
        }
        let mut list = Vec::new();
        r.array(|r| {
            list.push(layer(r)?);
            Ok(())
        })?;
        layers = Some(list);
        Ok(true)
    })?;
    r.finish()?;
    required(r, layers, "Network", "layers")
}

fn required<T>(r: &Reader, field: Option<T>, ty: &str, key: &str) -> Result<T, Error> {
    field.ok_or_else(|| r.error(&format!("{ty}: missing field `{key}`")))
}

fn layer(r: &mut Reader) -> Result<RawLayer, Error> {
    let (mut weights, mut biases, mut activation) = (None, None, None);
    r.object(|r, key| {
        match key.as_str() {
            "weights" if weights.is_none() => weights = Some(matrix(r)?),
            "biases" if biases.is_none() => biases = Some(numbers(r, 0)?),
            "activation" if activation.is_none() => activation = Some(activation_name(r)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let (rows, cols, data) = required(r, weights, "DenseLayer", "weights")?;
    Ok(RawLayer {
        rows,
        cols,
        data,
        biases: required(r, biases, "DenseLayer", "biases")?,
        activation: required(r, activation, "DenseLayer", "activation")?,
    })
}

fn matrix(r: &mut Reader) -> Result<(usize, usize, Vec<f64>), Error> {
    let (mut rows, mut cols, mut data) = (None, None, None);
    r.object(|r, key| {
        match key.as_str() {
            "rows" if rows.is_none() => rows = Some(dimension(r)?),
            "cols" if cols.is_none() => cols = Some(dimension(r)?),
            "data" if data.is_none() => {
                let declared = rows.unwrap_or(0usize).saturating_mul(cols.unwrap_or(0));
                data = Some(numbers(r, declared)?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok((
        required(r, rows, "Matrix", "rows")?,
        required(r, cols, "Matrix", "cols")?,
        required(r, data, "Matrix", "data")?,
    ))
}

/// An array of numbers (`null` reads as NaN). Room for `declared` values
/// is reserved up front, but never for more than the remaining bytes can
/// hold (each value takes at least two), so a tampered dimension cannot
/// make the reader reserve more than 4× the remaining input (8 bytes per
/// value).
fn numbers(r: &mut Reader, declared: usize) -> Result<Vec<f64>, Error> {
    let mut values = Vec::with_capacity(declared.min(r.remaining() / 2));
    r.array(|r| {
        values.push(match r.peek() {
            Some(b'n') => r.literal("null").map(|()| f64::NAN)?,
            Some(b'-' | b'0'..=b'9') => match r.number()? {
                Value::U64(u) => u as f64,
                Value::I64(i) => i as f64,
                Value::F64(f) => f,
                _ => unreachable!("`Reader::number` returns a number"),
            },
            _ => return Err(r.error("expected number")),
        });
        Ok(())
    })?;
    values.shrink_to_fit();
    Ok(values)
}

/// A non-negative integer, written as one (`2`) or as an integral float
/// below 2^64 (`2.0`, `2e0`).
fn dimension(r: &mut Reader) -> Result<usize, Error> {
    let value = match r.peek() {
        Some(b'-' | b'0'..=b'9') => match r.number()? {
            Value::U64(u) => Some(u),
            Value::I64(i) => u64::try_from(i).ok(),
            // `u64::MAX as f64` is 2^64, one past the range.
            Value::F64(f) if f >= 0.0 && f.fract() == 0.0 && f < u64::MAX as f64 => Some(f as u64),
            _ => None,
        },
        _ => None,
    };
    value
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| r.error("expected unsigned integer"))
}

fn activation_name(r: &mut Reader) -> Result<Activation, Error> {
    if r.peek() != Some(b'"') {
        return Err(r.error("Activation: expected variant string"));
    }
    let name = r.string()?;
    ACTIVATIONS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, a)| a)
        .ok_or_else(|| r.error(&format!("Activation: unknown variant `{name}`")))
}
