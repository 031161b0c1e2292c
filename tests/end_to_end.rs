//! Cross-crate integration on the airlines generator: a profile survives a
//! JSON round-trip, and the safety envelope flags a mixture in proportion.

use cc_datagen::{airlines, AirlinesConfig, FlightKind};
use ccsynth::prelude::*;

#[test]
fn profile_persists_through_json() {
    let train = airlines(&AirlinesConfig { rows: 2000, kind: FlightKind::Daytime, seed: 5 });
    let opts = SynthOptions { drop_attributes: vec!["arrival_delay".into()], ..Default::default() };
    let profile = synthesize(&train, &opts).unwrap();
    let json = serde_json::to_string(&profile).unwrap();
    let back: ConformanceProfile = serde_json::from_str(&json).unwrap();

    // Identical violations on fresh data after the round-trip.
    let serve = airlines(&AirlinesConfig { rows: 500, kind: FlightKind::Mixed(30), seed: 6 });
    let v1 = profile.violations(&serve).unwrap();
    let v2 = back.violations(&serve).unwrap();
    for (a, b) in v1.iter().zip(&v2) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn envelope_flags_mixture_proportionally() {
    let train = airlines(&AirlinesConfig { rows: 6000, kind: FlightKind::Daytime, seed: 7 });
    let opts = SynthOptions { drop_attributes: vec!["arrival_delay".into()], ..Default::default() };
    let profile = synthesize(&train, &opts).unwrap();
    let envelope = SafetyEnvelope::new(profile, 0.3);

    let mixed = airlines(&AirlinesConfig { rows: 3000, kind: FlightKind::Mixed(40), seed: 8 });
    let fraction = envelope.unsafe_fraction(&mixed).unwrap();
    assert!((fraction - 0.4).abs() < 0.06, "≈40% of the mixture should be flagged, got {fraction}");
}
