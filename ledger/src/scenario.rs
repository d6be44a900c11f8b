//! One scenario through the public seams: `ScenarioSpec::parse`/`build`,
//! then either `Scenario::run` (untraced) or `ScenarioStepper::step_until`
//! in one-simulated-second slices (traced), then `scenario_result_text`.
//! Both paths must render the same bytes.

use crate::trace::{Layers, TimedController, Tracer};
use apps::RunResult;
use microsim::World;
use sim_core::allocmeter::Scope;
use sim_core::SimTime;
use sora_bench::{scenario_result_text, BuiltScenario, ScenarioOutcome, ScenarioSpec};
use std::hint::black_box;
use std::time::Instant;

/// Slices (simulated seconds) between two timed telemetry snapshots.
const SNAPSHOT_EVERY: u64 = 10;

/// What one scenario run produced.
pub struct Run {
    /// The canonical result text.
    pub text: String,
    /// `parse` + `build` seconds.
    pub setup_s: f64,
    /// Run + drain + render seconds.
    pub wall_s: f64,
    /// Completed requests.
    pub completed: u64,
    /// Requests injected (operations attempted).
    pub injected: u64,
    /// `Summary.goodput_rps`.
    pub goodput_rps: f64,
}

/// Parses and builds a spec; the set-up cost a user pays per scenario.
pub fn setup(text: &str) -> Result<(ScenarioSpec, BuiltScenario), String> {
    let spec = ScenarioSpec::parse(text).map_err(|e| e.to_string())?;
    let built = spec.build();
    Ok((spec, built))
}

/// Runs `text` with `Scenario::run`, the way `run_scenario` and farm
/// workers do.
pub fn plain(text: &str) -> Result<Run, String> {
    let t0 = Instant::now();
    let (spec, built) = setup(text)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let BuiltScenario {
        mut world,
        scenario,
        mut controller,
    } = built;
    let result = scenario.run(&mut world, controller.as_mut());
    let (text, outcome) = render(&spec, result, world);
    let wall_s = t1.elapsed().as_secs_f64();
    finish_run(text, outcome, setup_s, wall_s)
}

/// Runs `text` stepped in one-second slices under the trace, adding its
/// per-layer totals to `layers` and its spans to `tracer` under `parent`.
pub fn traced(
    text: &str,
    layers: &mut Layers,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Result<Run, String> {
    let t0 = Instant::now();
    let top = tracer.open("workload", parent);
    let (spec, parse_s) = tracer.time("parse", Some(top), || ScenarioSpec::parse(text));
    let spec = spec.map_err(|e| e.to_string())?;
    let (built, build_s) = tracer.time("build", Some(top), || spec.build());
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let BuiltScenario {
        mut world,
        scenario,
        controller,
    } = built;
    let mut controller = TimedController::new(controller);
    let mut stepper = scenario.into_stepper();
    let report_rtt = stepper.report_rtt();
    let (mut allocs, mut bytes) = (0, 0);
    for second in 1.. {
        let slice = tracer.open("slice", Some(top));
        controller.parent = slice;
        let scope = Scope::begin();
        let done = stepper.step_until(&mut world, &mut controller, SimTime::from_secs(second));
        let a = scope.finish();
        let slice_s = tracer.close(slice);
        (allocs, bytes) = (allocs + a.count, bytes + a.bytes);
        layers.slices_ms.push(slice_s * 1e3);
        layers.step_s += slice_s - controller.time_under(slice);
        layers.in_flight_max = layers.in_flight_max.max(world.in_flight());
        // The live-session frame cost, sampled: a snapshot per slice would
        // add ~4% to the traced wall on its own.
        if second % SNAPSHOT_EVERY == 0 {
            let q = Instant::now();
            let from = SimTime::from_secs(second - SNAPSHOT_EVERY);
            black_box(world.telemetry_snapshot(from, report_rtt));
            layers.snapshot_us.push(q.elapsed().as_secs_f64() * 1e6);
        }
        if done {
            break;
        }
    }
    let fin = tracer.open("finish", Some(top));
    controller.parent = fin;
    let scope = Scope::begin();
    let result = stepper.finish(&mut world, &mut controller);
    let a = scope.finish();
    layers.finish_s += tracer.close(fin) - controller.time_under(fin);
    // Controller calls ran inside the runner's scopes; take them back out.
    layers.runner_allocs += allocs + a.count - controller.allocs();
    layers.runner_bytes += bytes + a.bytes;
    layers.retry.attempts += result.retry.attempts;
    layers.retry.gave_up += result.retry.gave_up;
    layers.retry.budget_denied += result.retry.budget_denied;
    controller.finish(tracer, layers);
    layers.add_world(&world);

    let ((text, outcome), render_s) =
        tracer.time("render", Some(top), || render(&spec, result, world));
    let wall_s = t1.elapsed().as_secs_f64();
    tracer.close(top);
    layers.parse_s += parse_s;
    layers.build_s += build_s;
    layers.render_s += render_s;
    finish_run(text, outcome, setup_s, wall_s)
}

fn render(spec: &ScenarioSpec, result: RunResult, world: World) -> (String, ScenarioOutcome) {
    let outcome = ScenarioOutcome {
        summary: result.summary,
        result,
        world,
    };
    (scenario_result_text(spec, &outcome), outcome)
}

/// Checks request conservation and packages the run.
fn finish_run(
    text: String,
    outcome: ScenarioOutcome,
    setup_s: f64,
    wall_s: f64,
) -> Result<Run, String> {
    let w = &outcome.world;
    let (injected, completed, dropped, in_flight) = (
        w.requests_injected(),
        w.client().total(),
        w.dropped(),
        w.in_flight() as u64,
    );
    if injected != completed + dropped + in_flight {
        return Err(format!(
            "request conservation broken: injected {injected} != completed {completed} \
             + dropped {dropped} + in flight {in_flight}"
        ));
    }
    Ok(Run {
        text,
        setup_s,
        wall_s,
        completed: outcome.summary.completed,
        injected,
        goodput_rps: outcome.summary.goodput_rps,
    })
}
