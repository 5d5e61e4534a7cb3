//! Always-on cycle profiling of a seizure-prediction session, exported
//! as a collapsed-stack flamegraph.
//!
//! The narrative: a clinician asks "where do this implant's cycles and
//! microjoules actually go?" The profiler rides the deterministic cost
//! model — no wall clocks, no sampling — so the answer is exact and
//! byte-stable across machines, and it costs nothing extra to leave on:
//! the runtime books every charge under its phase on every run, and
//! `attach_profile` only enables reporting.
//! One replay yields a hierarchical attribution over
//! *device → pipeline → PE@slot → kernel phase* (ingest / compute /
//! drain / quiet-skip), folded into the collapsed-stack format that
//! inferno, speedscope, and `flamegraph.pl` consume directly, plus the
//! `halo_profile_*` Prometheus families.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example profile_flamegraph [-- <out-dir>]
//! ```
//!
//! Writes `profile.folded` and `profile.prom` under `<out-dir>`
//! (default `target/profile_flamegraph`).

use std::path::PathBuf;

use halo::core::{HaloConfig, HaloSystem, Task};
use halo::pe::PeKind;
use halo::signal::{RecordingConfig, RegionProfile};
use halo::telemetry::json;

const CHANNELS: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("target/profile_flamegraph"), PathBuf::from);

    let recording = RecordingConfig::new(RegionProfile::arm())
        .channels(CHANNELS)
        .duration_ms(200)
        .generate(17);
    let config = HaloConfig::small_test(CHANNELS).channels(CHANNELS);
    let mut system = HaloSystem::new(Task::SeizurePrediction, config)?;
    system.attach_profile();
    let metrics = system.process(&recording)?;
    let profile = system
        .profile("implant-07")
        .expect("profiler was attached before the stream");
    println!(
        "profiled {} frames: {} modeled cycles, {:.1} uJ across {} attribution frames\n",
        profile.frames,
        profile.total_cycles(),
        profile.total_energy_uj(),
        profile.rows.len()
    );
    assert_eq!(profile.frames, metrics.frames);

    let exposition = profile.render_exposition();
    assert!(exposition.contains("halo_profile_cycles_total"));
    assert!(exposition.contains("halo_profile_energy_microjoules"));
    println!("{exposition}");

    // Annotate the dominant frame with its cost-model anchor: the frame
    // path names the PE, and `PeKind::from_name` maps it back to the
    // cycles-per-token the attribution was built from.
    let (frame, share) = profile.dominant_frame().expect("profile is non-empty");
    let pe_name = frame
        .split(';')
        .nth(1)
        .and_then(|s| s.split('@').next())
        .unwrap_or("");
    if let Some(kind) = PeKind::from_name(pe_name) {
        println!(
            "dominant: {frame} holds {:.1}% of cycles ({} charges {} cycles/token)\n",
            share * 100.0,
            kind.name(),
            kind.cycles_per_token()
        );
    }

    std::fs::create_dir_all(&out_dir)?;

    let folded = profile.folded();
    assert!(!folded.is_empty(), "profile must attribute cycles");
    assert!(
        folded.lines().all(|l| l.starts_with("implant-07;")),
        "every stack is rooted at the device"
    );
    let folded_path = out_dir.join("profile.folded");
    std::fs::write(&folded_path, &folded)?;
    println!(
        "wrote {} ({} stacks)",
        folded_path.display(),
        folded.lines().count()
    );

    let prom_path = out_dir.join("profile.prom");
    std::fs::write(&prom_path, &exposition)?;
    println!("wrote {} ({} bytes)", prom_path.display(), exposition.len());

    json::validate(&profile.to_json()).expect("profile JSON must be valid");
    Ok(())
}
