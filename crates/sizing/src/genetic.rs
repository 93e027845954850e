//! DARWIN-style genetic synthesis: topology selection inside the
//! optimization loop.
//!
//! "Other tools have attempted to integrate the topology selection step as
//! part of the optimization loop. This was done … by using a genetic
//! algorithm to find the best topology choice" (§2.2, citing DARWIN \[28\]
//! and SEAS \[27\]). A chromosome pairs a topology gene with that topology's
//! parameter vector; crossover mixes parameters within a topology species
//! and mutation occasionally jumps species.

//!
//! Population evaluation is parallel and memoized: children are bred
//! serially (so the random stream is identical at any thread count), then
//! each generation's costs are computed as one `ams-exec` batch through a
//! per-run [`EvalCache`](ams_exec::EvalCache) keyed by (topology,
//! quantized genes). Elitism updates and reductions run in index order,
//! keeping the whole GA bit-reproducible regardless of worker count.

use crate::anneal::{record_generation, record_start, ParamDef};
use crate::ckpt::{CkptRun, SizingCkptError};
use crate::cost::{eval_tag, CostCompiler};
use crate::eqopt::{PerfModel, SizingResult};
use ams_ckpt::codec::{Dec, DecodeError, Enc};
use ams_exec::{CacheKey, EvalCacheHandle, EvalCachePolicy};
use ams_prng::{Rng, SeedableRng, SmallRng};
use ams_topology::Spec;

/// GA configuration.
#[derive(Debug, Clone)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Probability of per-gene mutation.
    pub mutation_rate: f64,
    /// Probability a mutation switches topology instead of a parameter.
    pub species_jump_rate: f64,
    /// Tournament size for selection.
    pub tournament: usize,
    /// RNG seed.
    pub seed: u64,
    /// Eval-cache mode: off / in-memory / persistent disk. The default
    /// defers to the `AMS_EVAL_CACHE` environment variable (unset ⇒
    /// in-memory). Results are bit-identical across modes; only wall
    /// time, cache counters, and budget spend differ.
    pub eval_cache: EvalCachePolicy,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 60,
            generations: 80,
            mutation_rate: 0.15,
            species_jump_rate: 0.08,
            tournament: 3,
            seed: 1,
            eval_cache: EvalCachePolicy::FromEnv,
        }
    }
}

#[derive(Debug, Clone)]
struct Chromosome {
    topology: usize,
    genes: Vec<f64>,
    cost: f64,
}

/// Result of a genetic synthesis run.
#[derive(Debug, Clone)]
pub struct GaResult {
    /// Name of the winning topology.
    pub topology: String,
    /// Sizing result for the winner.
    pub sizing: SizingResult,
    /// Fraction of the final population carrying the winning topology —
    /// a measure of selection confidence.
    pub consensus: f64,
}

/// Runs genetic topology selection + sizing over a set of candidate
/// performance models.
///
/// # Panics
///
/// Panics if `models` is empty.
pub fn evolve(models: &[&dyn PerfModel], spec: &Spec, config: &GaConfig) -> GaResult {
    match evolve_inner(models, spec, config, None) {
        Ok(r) => r,
        // Without a checkpoint run there is nothing that can fail.
        Err(e) => unreachable!("un-checkpointed evolve cannot fail: {e}"),
    }
}

/// [`evolve`] with durable checkpointing at generation (and polish-round)
/// boundaries.
///
/// Each boundary commits the population, per-species elitism state, loop
/// counters, serialized RNG state, the evaluation-cache entries first
/// inserted since the previous boundary, and the trace-counter delta
/// accrued since the run began. Resuming with the same store imports the
/// cache entries of every state record, then continues the exact random
/// stream from the last one, so the resumed run's `GaResult` and final
/// trace counters are byte-identical to an uninterrupted same-seed run.
/// `ck.halt_after` counts generation boundaries.
///
/// # Panics
///
/// Panics if `models` is empty.
pub fn evolve_ckpt(
    models: &[&dyn PerfModel],
    spec: &Spec,
    config: &GaConfig,
    ck: CkptRun<'_>,
) -> Result<GaResult, SizingCkptError> {
    evolve_inner(models, spec, config, Some(ck))
}

/// Journal tag for the GA's state record.
const GA_TAG: &str = "ga.state";

/// Where a checkpointed GA run stopped: generation loop or polish loop.
const PHASE_GENERATIONS: u8 = 0;
const PHASE_POLISH: u8 = 1;

struct GaState {
    rng: SmallRng,
    phase: u8,
    /// Next generation (phase 0) or next polish round (phase 1) to run.
    next: usize,
    pop: Vec<Chromosome>,
    species_best: Vec<Option<Chromosome>>,
    elitism_updates: u64,
    polish_improvements: u64,
    evals_requested: u64,
}

fn encode_chromosome(e: &mut Enc, c: &Chromosome) {
    e.usize(c.topology);
    e.f64_slice(&c.genes);
    e.f64(c.cost);
}

fn decode_chromosome(d: &mut Dec<'_>) -> Result<Chromosome, DecodeError> {
    Ok(Chromosome {
        topology: d.usize()?,
        genes: d.f64_vec()?,
        cost: d.f64()?,
    })
}

fn encode_ga(st: &GaState, entries: &[(CacheKey, u64)], delta: &[(String, u64)]) -> Vec<u8> {
    let mut e = Enc::new();
    e.counter_delta(delta);
    e.u64_slice(&st.rng.state());
    e.u8(st.phase);
    e.usize(st.next);
    e.usize(st.pop.len());
    for c in &st.pop {
        encode_chromosome(&mut e, c);
    }
    e.usize(st.species_best.len());
    for slot in &st.species_best {
        match slot {
            Some(c) => {
                e.bool(true);
                encode_chromosome(&mut e, c);
            }
            None => e.bool(false),
        }
    }
    e.u64(st.elitism_updates);
    e.u64(st.polish_improvements);
    e.u64(st.evals_requested);
    // The memo cache travels with the state, one increment per record: a
    // resumed run re-sees every hit the uninterrupted run would have,
    // keeping exec.cache.* counters (and the budget meter, which only
    // charges misses) byte-identical.
    ams_exec::encode_entries_into(&mut e, entries);
    e.finish()
}

/// Decoded GA journal record: counter delta, optimizer state, and the
/// eval-cache entries it carries.
type GaCkptState = (Vec<(String, u64)>, GaState, Vec<(CacheKey, u64)>);

fn decode_ga(payload: &[u8]) -> Result<GaCkptState, DecodeError> {
    let mut d = Dec::new(payload);
    let delta = d.counter_delta()?;
    let rng: [u64; 4] = d
        .u64_vec()?
        .try_into()
        .map_err(|_| DecodeError::BadLen { len: 4, have: 0 })?;
    let phase = d.u8()?;
    if phase > PHASE_POLISH {
        return Err(DecodeError::BadDiscriminant(phase));
    }
    let next = d.usize()?;
    let n_pop = d.len_prefix(17)?;
    let mut pop = Vec::with_capacity(n_pop);
    for _ in 0..n_pop {
        pop.push(decode_chromosome(&mut d)?);
    }
    let n_species = d.len_prefix(1)?;
    let mut species_best = Vec::with_capacity(n_species);
    for _ in 0..n_species {
        species_best.push(if d.bool()? {
            Some(decode_chromosome(&mut d)?)
        } else {
            None
        });
    }
    let elitism_updates = d.u64()?;
    let polish_improvements = d.u64()?;
    let evals_requested = d.u64()?;
    let entries = ams_exec::decode_entries_from(&mut d)?;
    d.finish()?;
    let st = GaState {
        rng: SmallRng::from_state(rng),
        phase,
        next,
        pop,
        species_best,
        elitism_updates,
        polish_improvements,
        evals_requested,
    };
    Ok((delta, st, entries))
}

/// Checks that a decoded state record fits this run, so a journal from
/// another run is a structured error rather than an out-of-range index:
/// one species slot per model, the configured population, and every
/// chromosome a valid topology with that model's gene count.
fn check_fit(
    st: &GaState,
    param_defs: &[Vec<ParamDef>],
    population: usize,
) -> Result<(), SizingCkptError> {
    let mismatch = |field| Err(SizingCkptError::Mismatch { field });
    if st.species_best.len() != param_defs.len() {
        return mismatch("species");
    }
    if st.pop.len() != population {
        return mismatch("population");
    }
    for c in st.pop.iter().chain(st.species_best.iter().flatten()) {
        let Some(defs) = param_defs.get(c.topology) else {
            return mismatch("topology");
        };
        if c.genes.len() != defs.len() {
            return mismatch("genes");
        }
    }
    Ok(())
}

fn evolve_inner(
    models: &[&dyn PerfModel],
    spec: &Spec,
    config: &GaConfig,
    mut ck: Option<CkptRun<'_>>,
) -> Result<GaResult, SizingCkptError> {
    assert!(!models.is_empty(), "no candidate topologies");
    let _span = ams_trace::span("sizing.ga");
    record_start("ga", config.seed);
    let counter_base = if ck.is_some() {
        ams_ckpt::counters_now()
    } else {
        Default::default()
    };
    let compiler = CostCompiler::new(spec.clone());
    let param_defs: Vec<Vec<ParamDef>> = models.iter().map(|m| m.params()).collect();

    // Canonical per-topology cache tags: (evaluator identity, spec) under
    // the one shared `cache_tag` derivation, so GA probes collide with
    // anneal / simopt / polish probes for the same cost function — within
    // this run, and across process runs once the cache persists.
    let tags: Vec<u64> = models
        .iter()
        .map(|m| eval_tag(&m.cache_identity(), spec))
        .collect();
    // Memoizing cache; warm-loaded from disk when the policy says so, and
    // committed back at generation/round boundaries. Batches fan out
    // across the exec pool. Panic-isolated evaluation: a poisoned
    // chromosome scores infeasible (infinite cost) instead of aborting
    // the run. Budget metering is per batch: `eval_batch_keyed` charges
    // the batch's computed (cache-miss) evaluations serially before the
    // parallel fan-out.
    let mut fp_parts: Vec<String> = models.iter().map(|m| m.cache_identity()).collect();
    fp_parts.push(format!("{spec:?}"));
    let handle = EvalCacheHandle::open(
        &config.eval_cache,
        ams_exec::workload_fingerprint(&fp_parts),
    );
    let cache = handle.cache();
    let eval_batch = |cands: &[Chromosome]| -> Vec<f64> {
        cache.eval_batch_keyed(
            cands,
            |c| CacheKey::for_candidate(tags[c.topology], &c.genes),
            |_, c| {
                ams_guard::guarded_eval(|| compiler.cost(&models[c.topology].evaluate(&c.genes)))
            },
        )
    };

    // Each state record carries the cache entries new since the record
    // before it, so the union over the journal is the cache at the last
    // boundary; the last record holds the state to continue from. A
    // journal whose records each carry the whole cache reads the same way.
    let mut resumed = None;
    for rec in ck.iter().flat_map(|c| c.store.records()) {
        if rec.tag == GA_TAG {
            let (delta, st, entries) = decode_ga(&rec.payload)
                .map_err(|e| SizingCkptError::Store(e.tagged(GA_TAG).into()))?;
            check_fit(&st, &param_defs, config.population)?;
            cache.import_entries(&entries);
            resumed = Some((delta, st));
        }
    }
    let resumed: Option<GaState> = resumed.map(|(delta, st)| {
        ams_ckpt::restore_delta(&delta);
        st
    });
    // The cache mark the next state record starts from. A fresh run's
    // first record carries every entry, warm-loaded ones included.
    let mut journaled = if resumed.is_some() { cache.mark() } else { 0 };

    // Every boundary (post-init, each generation, each polish round)
    // persists the eval cache (a no-op outside disk mode) and, under a
    // checkpoint run, commits the state record with the counter delta
    // accrued so far. `halt_after` counts generation boundaries only:
    // generation `n` has just committed when the state reads phase 0
    // with `next == n + 1`.
    let mut boundary = |st: &GaState| -> Result<(), SizingCkptError> {
        handle.commit();
        let Some(ck) = ck.as_mut() else {
            return Ok(());
        };
        let delta = ams_ckpt::delta_since(&counter_base);
        let entries = cache.entries_since(journaled);
        journaled = cache.mark();
        ck.store.commit(GA_TAG, encode_ga(st, &entries, &delta))?;
        match ck.halt_after {
            Some(n) if st.phase == PHASE_GENERATIONS && st.next.checked_sub(1) == Some(n) => {
                Err(SizingCkptError::Halted { boundary: n })
            }
            _ => Ok(()),
        }
    };

    let mut st = match resumed {
        Some(st) => st,
        None => {
            let mut rng = SmallRng::seed_from_u64(config.seed);
            // Seed the population uniformly across species, breeding
            // serially and evaluating as one parallel batch.
            // Initialization always completes (the GA needs a full
            // population to be well-defined); the evaluations are still
            // metered so exhaustion stops the generation loop.
            let mut pop: Vec<Chromosome> = (0..config.population)
                .map(|i| {
                    let topology = i % models.len();
                    let genes: Vec<f64> = param_defs[topology]
                        .iter()
                        .map(|p| p.sample(&mut rng))
                        .collect();
                    Chromosome {
                        topology,
                        genes,
                        cost: f64::INFINITY,
                    }
                })
                .collect();
            let costs = eval_batch(&pop);
            for (c, cost) in pop.iter_mut().zip(costs) {
                c.cost = cost;
            }

            // Per-species elitism: track the best chromosome of every
            // topology species and re-seed it each generation. Without
            // this, tournament selection can drive a species extinct
            // before its parameters have been optimized, making the
            // topology choice an accident of the random stream rather
            // than a comparison of each species' optimum.
            let mut elitism_updates = 0u64;
            let mut species_best: Vec<Option<Chromosome>> = vec![None; models.len()];
            for c in &pop {
                let slot = &mut species_best[c.topology];
                if slot.as_ref().is_none_or(|s| c.cost < s.cost) {
                    *slot = Some(c.clone());
                    elitism_updates += 1;
                }
            }
            let evals_requested = pop.len() as u64;
            let st = GaState {
                rng,
                phase: PHASE_GENERATIONS,
                next: 0,
                pop,
                species_best,
                elitism_updates,
                polish_improvements: 0,
                evals_requested,
            };
            // Commit the post-init state so a crash during generation 0
            // does not repeat the seeding batch.
            boundary(&st)?;
            st
        }
    };

    let start_gen = if st.phase == PHASE_GENERATIONS {
        st.next
    } else {
        config.generations
    };
    for gen in start_gen..config.generations {
        // Budget checkpoint at the generation boundary: a partially-built
        // generation would shrink the population, so exhaustion mid-build
        // finishes the current generation and stops here.
        if !ams_guard::budget::check_in() {
            break;
        }
        // Breed all children serially (one shared random stream), then
        // evaluate the generation as a single parallel batch and fold the
        // costs back in index order — identical results at any thread
        // count, since selection only reads the previous generation.
        let mut next: Vec<Chromosome> = st.species_best.iter().flatten().cloned().collect();
        let mut children: Vec<Chromosome> = Vec::new();
        while next.len() + children.len() < st.pop.len() {
            let a = tournament(&st.pop, config.tournament, &mut st.rng);
            let b = tournament(&st.pop, config.tournament, &mut st.rng);
            let mut child = crossover(a, b, &mut st.rng);
            mutate(&mut child, models.len(), &param_defs, config, &mut st.rng);
            children.push(child);
        }
        st.evals_requested += children.len() as u64;
        let costs = eval_batch(&children);
        for (mut child, cost) in children.into_iter().zip(costs) {
            child.cost = cost;
            let slot = &mut st.species_best[child.topology];
            if slot.as_ref().is_none_or(|s| child.cost < s.cost) {
                *slot = Some(child.clone());
                st.elitism_updates += 1;
            }
            next.push(child);
        }
        st.pop = next;
        let best_cost = st
            .species_best
            .iter()
            .flatten()
            .map(|c| c.cost)
            .fold(f64::INFINITY, f64::min);
        record_generation("ga", gen, st.evals_requested, best_cost);
        st.next = gen + 1;
        boundary(&st)?;
    }

    // Polish each species' champion with a mutation-only hill climb.
    // Tournament selection concentrates offspring on the currently-leading
    // species, so a minority species' champion can be far from its own
    // optimum; refining every champion makes the final topology choice a
    // comparison of local optima, not of how many offspring each species
    // happened to receive.
    // Polish runs in rounds — one trial per surviving champion per round,
    // bred serially and evaluated as one parallel batch — so the budget
    // cutoff lands on a round boundary and the hill climb is reproducible
    // at any thread count.
    let polish_iters = config.population;
    let start_round = if st.phase == PHASE_POLISH { st.next } else { 0 };
    for round in start_round..polish_iters {
        if !ams_guard::budget::check_in() {
            break;
        }
        let trials: Vec<Chromosome> = st
            .species_best
            .iter()
            .flatten()
            .map(|champ| {
                let mut trial = champ.clone();
                perturb_genes(
                    &mut trial.genes,
                    &param_defs[trial.topology],
                    0.5,
                    &mut st.rng,
                );
                trial
            })
            .collect();
        if trials.is_empty() {
            break;
        }
        let costs = eval_batch(&trials);
        for (mut trial, cost) in trials.into_iter().zip(costs) {
            trial.cost = cost;
            let slot = &mut st.species_best[trial.topology];
            if slot.as_ref().is_some_and(|champ| trial.cost < champ.cost) {
                *slot = Some(trial);
                st.polish_improvements += 1;
            }
        }
        st.phase = PHASE_POLISH;
        st.next = round + 1;
        boundary(&st)?;
    }
    handle.commit();
    ams_trace::counter_add("sizing.ga_runs", 1);
    ams_trace::counter_add("sizing.ga_generations", config.generations as u64);
    ams_trace::counter_add("sizing.ga_elitism_updates", st.elitism_updates);
    ams_trace::counter_add("sizing.ga_polish_improvements", st.polish_improvements);

    let best = st
        .species_best
        .iter()
        .flatten()
        .min_by(|a, b| {
            a.cost
                .partial_cmp(&b.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("non-empty population")
        .clone();

    let consensus = st
        .pop
        .iter()
        .filter(|c| c.topology == best.topology)
        .count() as f64
        / st.pop.len() as f64;
    let model = models[best.topology];
    let perf = model.evaluate(&best.genes);
    Ok(GaResult {
        topology: model.name().to_string(),
        consensus,
        sizing: SizingResult {
            params: param_defs[best.topology]
                .iter()
                .zip(&best.genes)
                .map(|(p, &v)| (p.name.clone(), v))
                .collect(),
            feasible: compiler.feasible(&perf),
            perf,
            cost: best.cost,
            evaluations: config.population * (config.generations + 1)
                + st.species_best.iter().flatten().count() * polish_iters,
        },
    })
}

fn tournament<'a>(pop: &'a [Chromosome], k: usize, rng: &mut SmallRng) -> &'a Chromosome {
    let mut best: Option<&Chromosome> = None;
    for _ in 0..k.max(1) {
        let c = &pop[rng.gen_range(0..pop.len())];
        if best.is_none_or(|b| c.cost < b.cost) {
            best = Some(c);
        }
    }
    best.expect("non-empty population")
}

fn crossover(a: &Chromosome, b: &Chromosome, rng: &mut SmallRng) -> Chromosome {
    if a.topology == b.topology {
        // Uniform crossover within a species.
        let genes = a
            .genes
            .iter()
            .zip(&b.genes)
            .map(|(&x, &y)| if rng.gen::<bool>() { x } else { y })
            .collect();
        Chromosome {
            topology: a.topology,
            genes,
            cost: f64::INFINITY,
        }
    } else {
        // Cross-species: inherit the fitter parent wholesale.
        let parent = if a.cost <= b.cost { a } else { b };
        Chromosome {
            topology: parent.topology,
            genes: parent.genes.clone(),
            cost: f64::INFINITY,
        }
    }
}

fn mutate(
    c: &mut Chromosome,
    n_models: usize,
    param_defs: &[Vec<ParamDef>],
    config: &GaConfig,
    rng: &mut SmallRng,
) {
    if n_models > 1 && rng.gen::<f64>() < config.species_jump_rate {
        // Species jump: new topology, fresh genes.
        let mut t = rng.gen_range(0..n_models);
        if t == c.topology {
            t = (t + 1) % n_models;
        }
        c.topology = t;
        c.genes = param_defs[t].iter().map(|p| p.sample(rng)).collect();
        return;
    }
    perturb_genes(
        &mut c.genes,
        &param_defs[c.topology],
        config.mutation_rate,
        rng,
    );
}

/// Perturbs each gene with probability `rate` by a Gaussian-ish step (sum of
/// two uniforms), clamped to the parameter bounds.
fn perturb_genes(genes: &mut [f64], defs: &[ParamDef], rate: f64, rng: &mut SmallRng) {
    for (gene, def) in genes.iter_mut().zip(defs) {
        if rng.gen::<f64>() < rate {
            let scale = 0.2;
            let step = scale * (rng.gen::<f64>() + rng.gen::<f64>() - 1.0);
            let v = if def.log {
                (gene.ln() + step * (def.hi / def.lo).ln()).exp()
            } else {
                *gene + step * (def.hi - def.lo)
            };
            *gene = v.clamp(def.lo, def.hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqopt::{SymmetricalOtaModel, TwoStageModel};
    use ams_netlist::Technology;
    use ams_topology::Bound;

    fn models() -> (TwoStageModel, SymmetricalOtaModel) {
        let tech = Technology::generic_1p2um();
        (
            TwoStageModel::new(tech.clone(), 5e-12),
            SymmetricalOtaModel::new(tech, 5e-12),
        )
    }

    #[test]
    fn high_gain_spec_selects_two_stage() {
        let (two, ota) = models();
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(75.0))
            .require("ugf_hz", Bound::AtLeast(1e6))
            .minimizing("power_w");
        let r = evolve(&[&two, &ota], &spec, &GaConfig::default());
        assert_eq!(r.topology, "two_stage_miller", "consensus {}", r.consensus);
        assert!(r.sizing.feasible, "perf {:?}", r.sizing.perf);
    }

    #[test]
    fn low_gain_low_power_spec_selects_ota() {
        let (two, ota) = models();
        // Modest gain, minimal power: the single-stage OTA wins on its
        // smaller bias budget (no second-stage current).
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(40.0))
            .require("gain_db", Bound::AtLeast(40.0))
            .require("phase_margin_deg", Bound::AtLeast(80.0))
            .minimizing("power_w");
        let r = evolve(&[&two, &ota], &spec, &GaConfig::default());
        assert_eq!(r.topology, "symmetrical_ota");
        assert!(r.sizing.feasible);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (two, ota) = models();
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .minimizing("power_w");
        let cfg = GaConfig {
            generations: 20,
            ..Default::default()
        };
        let a = evolve(&[&two, &ota], &spec, &cfg);
        let b = evolve(&[&two, &ota], &spec, &cfg);
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.sizing.cost, b.sizing.cost);
    }

    #[test]
    fn single_model_degenerates_to_plain_ga_sizing() {
        let (two, _) = models();
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(65.0))
            .require("ugf_hz", Bound::AtLeast(5e6))
            .minimizing("power_w");
        let r = evolve(&[&two], &spec, &GaConfig::default());
        assert_eq!(r.topology, "two_stage_miller");
        assert!((r.consensus - 1.0).abs() < 1e-12);
        assert!(r.sizing.feasible);
    }

    fn ga_canon(r: &GaResult) -> String {
        let mut params: Vec<_> = r.sizing.params.iter().collect();
        params.sort_by(|a, b| a.0.cmp(b.0));
        format!(
            "{} consensus={:016x} cost={:016x} evals={} params={:?}",
            r.topology,
            r.consensus.to_bits(),
            r.sizing.cost.to_bits(),
            r.sizing.evaluations,
            params
                .iter()
                .map(|(k, v)| (k.as_str(), v.to_bits()))
                .collect::<Vec<_>>()
        )
    }

    #[test]
    fn ckpt_fresh_run_matches_plain_evolve() {
        let (two, ota) = models();
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .minimizing("power_w");
        let cfg = GaConfig {
            population: 16,
            generations: 6,
            ..Default::default()
        };
        let plain = evolve(&[&two, &ota], &spec, &cfg);
        let mut store = ams_ckpt::CkptStore::in_memory();
        let ck = evolve_ckpt(&[&two, &ota], &spec, &cfg, CkptRun::new(&mut store)).unwrap();
        assert_eq!(ga_canon(&plain), ga_canon(&ck));
        // init + per-generation + per-polish-round records
        assert_eq!(store.len(), 1 + cfg.generations + cfg.population);
    }

    #[test]
    fn halted_and_resumed_ga_is_byte_identical() {
        let (two, ota) = models();
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .minimizing("power_w");
        let cfg = GaConfig {
            population: 16,
            generations: 6,
            ..Default::default()
        };
        let uninterrupted = evolve(&[&two, &ota], &spec, &cfg);
        for (halt_at, whole_cache) in [(0usize, false), (3, false), (3, true), (5, false)] {
            let mut store = ams_ckpt::CkptStore::in_memory();
            let err = evolve_ckpt(
                &[&two, &ota],
                &spec,
                &cfg,
                CkptRun::halting_after(&mut store, halt_at),
            )
            .unwrap_err();
            assert_eq!(
                err,
                crate::ckpt::SizingCkptError::Halted { boundary: halt_at }
            );
            if whole_cache {
                store = with_whole_cache_records(&store);
            }
            let resumed =
                evolve_ckpt(&[&two, &ota], &spec, &cfg, CkptRun::new(&mut store)).unwrap();
            assert_eq!(
                ga_canon(&uninterrupted),
                ga_canon(&resumed),
                "halt at {halt_at}, whole-cache records {whole_cache}"
            );
        }
    }

    /// Rewrites a journal into the older layout, where every state record
    /// carries the whole cache in key order rather than its increment.
    fn with_whole_cache_records(store: &ams_ckpt::CkptStore) -> ams_ckpt::CkptStore {
        let cache = ams_exec::EvalCache::new();
        let mut old = ams_ckpt::CkptStore::in_memory();
        for rec in store.records() {
            let (delta, st, entries) = decode_ga(&rec.payload).unwrap();
            cache.import_entries(&entries);
            let mut whole = cache.entries_since(0);
            whole.sort();
            old.commit(GA_TAG, encode_ga(&st, &whole, &delta)).unwrap();
        }
        old
    }

    #[test]
    fn checkpoint_bytes_per_commit_do_not_grow_with_run_length() {
        let (two, ota) = models();
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .minimizing("power_w");
        let per_commit = |generations: usize| {
            let path = std::env::temp_dir().join(format!(
                "ams_ga_linear_io_{}_{generations}.ckpt",
                std::process::id()
            ));
            let cfg = GaConfig {
                population: 16,
                generations,
                eval_cache: EvalCachePolicy::Memory,
                ..Default::default()
            };
            let mut store = ams_ckpt::CkptStore::create(&path);
            evolve_ckpt(&[&two, &ota], &spec, &cfg, CkptRun::new(&mut store)).unwrap();
            let on_disk = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(on_disk, store.serialize(), "{generations} generations");
            let stats = store.stats();
            assert_eq!(stats.commits, 1 + generations as u64 + 16);
            assert_eq!(stats.bytes_written, on_disk.len() as u64);
            stats.bytes_written as f64 / stats.commits as f64
        };
        let (short, long) = (per_commit(8), per_commit(64));
        assert!(
            long <= 1.5 * short,
            "bytes per commit grew from {short:.0} at 8 generations to {long:.0} at 64"
        );
    }

    #[test]
    fn corrupt_state_record_is_a_structured_error() {
        let (two, ota) = models();
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .minimizing("power_w");
        let cfg = GaConfig {
            population: 8,
            generations: 2,
            ..Default::default()
        };
        let mut real = ams_ckpt::CkptStore::in_memory();
        let halted = evolve_ckpt(
            &[&two, &ota],
            &spec,
            &cfg,
            CkptRun::halting_after(&mut real, 0),
        );
        assert!(halted.is_err());
        let record = real.find(GA_TAG).expect("committed state").to_vec();
        let bad_phase = GaState {
            rng: SmallRng::seed_from_u64(1),
            phase: PHASE_POLISH + 1,
            next: 0,
            pop: Vec::new(),
            species_best: Vec::new(),
            elitism_updates: 0,
            polish_improvements: 0,
            evals_requested: 0,
        };
        // The real record with one field of its state changed.
        let edited = |edit: fn(&mut GaState)| {
            let (delta, mut st, entries) = decode_ga(&record).unwrap();
            edit(&mut st);
            encode_ga(&st, &entries, &delta)
        };
        let both: [&dyn PerfModel; 2] = [&two, &ota];
        let one: [&dyn PerfModel; 1] = [&two];
        // (case, payload, resuming models, resuming population, the field
        // a record that decodes but does not fit names).
        for (what, payload, models, population, field) in [
            ("garbage", vec![0xFF; 7], &both[..], 8, None),
            (
                "truncated",
                record[..record.len() / 2].to_vec(),
                &both,
                8,
                None,
            ),
            ("phase 2", encode_ga(&bad_phase, &[], &[]), &both, 8, None),
            ("one model", record.clone(), &one, 8, Some("species")),
            (
                "population 16",
                record.clone(),
                &both,
                16,
                Some("population"),
            ),
            (
                "topology 2",
                edited(|st| st.pop[0].topology = 2),
                &both,
                8,
                Some("topology"),
            ),
            (
                "short genes",
                edited(|st| {
                    st.pop[0].genes.pop();
                }),
                &both,
                8,
                Some("genes"),
            ),
        ] {
            let mut store = ams_ckpt::CkptStore::in_memory();
            store.commit(GA_TAG, payload).unwrap();
            let cfg = GaConfig {
                population,
                ..cfg.clone()
            };
            let err = evolve_ckpt(models, &spec, &cfg, CkptRun::new(&mut store)).unwrap_err();
            match field {
                Some(field) => assert_eq!(err, SizingCkptError::Mismatch { field }, "{what}"),
                None => assert!(
                    matches!(
                        err,
                        SizingCkptError::Store(ams_ckpt::CkptError::Decode { .. })
                    ),
                    "{what}: {err}"
                ),
            }
        }
    }

    #[test]
    fn consensus_reflects_population_agreement() {
        let (two, ota) = models();
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(75.0))
            .minimizing("power_w");
        let r = evolve(&[&two, &ota], &spec, &GaConfig::default());
        // With a decisive spec the population should largely agree.
        assert!(r.consensus > 0.5, "consensus = {}", r.consensus);
    }
}
