//! Canonical scenario JSON and content-addressed cache keys.
//!
//! Two scenario files that *mean* the same thing must hit the same cache
//! entry, however they are spelled: key order, `800` vs `800.0`, omitted
//! fields vs explicit defaults vs explicit `null`s. The cache key is
//! therefore derived not from the file text but from the **parsed spec**,
//! re-serialized (which materialises every default) and canonicalized
//! (keys sorted, integral floats collapsed to integers), then hashed
//! together with the engine fingerprint so results produced by a different
//! engine revision never alias.

use serde_json::{Map, Number, Value};
use sora_bench::ScenarioSpec;

/// Identifies the simulation engine revision that produced a cached
/// result. Bump it whenever simulation output can change: every cache
/// entry written under the old revision then misses instead of serving
/// stale bytes.
pub const ENGINE_FINGERPRINT: &str = "sora-sim/rev-3";

/// Recursively canonicalizes a JSON value: object keys sorted
/// lexicographically, and numbers normalised (a float with zero fractional
/// part becomes the equivalent integer, so `800.0` and `800` render
/// identically).
pub fn canonicalize(value: &Value) -> Value {
    match value {
        Value::Object(map) => {
            let mut entries: Vec<(&String, &Value)> = map.iter().collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            let mut out = Map::new();
            for (k, v) in entries {
                out.insert(k.clone(), canonicalize(v));
            }
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(items.iter().map(canonicalize).collect()),
        Value::Number(n) => Value::Number(normalize_number(*n)),
        other => other.clone(),
    }
}

fn normalize_number(n: Number) -> Number {
    if let Some(i) = n.as_i64() {
        return if i >= 0 {
            Number::PosInt(i as u64)
        } else {
            Number::NegInt(i)
        };
    }
    if let Some(u) = n.as_u64() {
        return Number::PosInt(u);
    }
    n
}

/// The compact single-line rendering of [`canonicalize`]. Equal canonical
/// strings ⇔ semantically identical configs.
pub fn canonical_string(value: &Value) -> String {
    let mut out = String::new();
    canonicalize(value).write_compact(&mut out);
    out
}

/// FNV-1a 64 over `bytes` from a caller-chosen basis.
fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A 128-bit content hash as 32 hex characters: two FNV-1a 64 passes from
/// independent bases. Not cryptographic — it guards against accidental
/// collisions in a result cache, not adversaries.
pub fn content_hash(text: &str) -> String {
    let a = fnv1a(text.as_bytes(), 0xcbf2_9ce4_8422_2325);
    let b = fnv1a(text.as_bytes(), 0x9e37_79b9_7f4a_7c15);
    format!("{a:016x}{b:016x}")
}

/// The content-addressed cache key of a scenario: the hash of its
/// canonical re-serialized form plus [`ENGINE_FINGERPRINT`].
pub fn cache_key(spec: &ScenarioSpec) -> String {
    let value = serde_json::to_value(spec);
    let canon = canonical_string(&value);
    content_hash(&format!("{canon}\n{ENGINE_FINGERPRINT}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_string_sorts_keys_and_normalises_numbers() {
        let a = serde_json::parse(r#"{"b": 2.0, "a": {"y": [1.0, 2.5], "x": 3}}"#).unwrap();
        let b = serde_json::parse(r#"{"a": {"x": 3.0, "y": [1, 2.5]}, "b": 2}"#).unwrap();
        assert_eq!(canonical_string(&a), canonical_string(&b));
        assert_eq!(canonical_string(&a), r#"{"a":{"x":3,"y":[1,2.5]},"b":2}"#);
    }

    #[test]
    fn content_hash_is_stable_and_wide() {
        let h = content_hash("hello");
        assert_eq!(h.len(), 32);
        assert_eq!(h, content_hash("hello"));
        assert_ne!(h, content_hash("hello "));
    }

    /// The satellite regression: two textually different but semantically
    /// identical scenario files land on the same cache entry.
    #[test]
    fn equivalent_scenario_files_share_a_cache_key() {
        // Key order scrambled, float spelling of integers, defaults made
        // explicit (including `null` options) — all immaterial.
        let spelled_out = r#"{
            "seed": 7,
            "app": "sock_shop",
            "trace": "Steady",
            "sla_ms": 400,
            "duration_secs": 30,
            "max_users": 800.0,
            "hardware": "none",
            "soft": "none",
            "cart_threads": null,
            "cart_cores": null,
            "home_timeline_conns": null,
            "drift_at_secs": null
        }"#;
        let terse = r#"{"app":"sock_shop","trace":"Steady","max_users":800,
                        "duration_secs":30.0,"sla_ms":400,"seed":7}"#;
        let a = ScenarioSpec::parse(spelled_out).unwrap();
        let b = ScenarioSpec::parse(terse).unwrap();
        assert_eq!(cache_key(&a), cache_key(&b));

        // And a real difference must not alias.
        let other = ScenarioSpec::parse(
            r#"{"app":"sock_shop","trace":"Steady","max_users":800,
                "duration_secs":30,"sla_ms":400,"seed":8}"#,
        )
        .unwrap();
        assert_ne!(cache_key(&a), cache_key(&other));
    }

    #[test]
    fn cache_key_binds_the_engine_fingerprint() {
        let spec = ScenarioSpec::parse(
            r#"{"app":"sock_shop","trace":"Steady","max_users":10,
                "duration_secs":5,"sla_ms":400}"#,
        )
        .unwrap();
        let value = serde_json::to_value(&spec);
        let canon = canonical_string(&value);
        let with = content_hash(&format!("{canon}\n{ENGINE_FINGERPRINT}"));
        let without = content_hash(&canon);
        assert_eq!(cache_key(&spec), with);
        assert_ne!(with, without);
    }
}
