//! The codebase's architecture rules, stated once and run by tier-1.
//!
//! Each rule names one fact of the design that has one home and lists the
//! text whose appearance means a second copy of it is growing back.  Most
//! checks are needles searched line by line under some roots, as `grep -rn`
//! would (every `target/` directory and this file skipped, dotfiles
//! included).  A needle is literal text except for five tokens: `\b` (a
//! word boundary), `\s*` and `\s+` (spaces), `[a-z_]+` and `[^;]*`.  The
//! checks that need a file's structure — a struct's fields, a function's
//! signature or body, where its tests begin — are functions over the
//! file's text.  A failure names its rule and every offending `path:line`,
//! and every check carries a sample that `every_sample_is_flagged` proves
//! it flags, so no needle or function can go vacuous.

use std::collections::BTreeSet;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

/// This file, which states every needle and so is never scanned.
const SELF: &str = "tests/architecture_rules.rs";

type Strs = &'static [&'static str];

struct Rule {
    name: &'static str,
    why: &'static str,
    checks: &'static [Check],
}

struct Check {
    roots: Strs,
    find: Find,
    sample: &'static str,
    rs_only: bool,
    /// Paths (a directory with its `/`, or a file) whose lines are the
    /// rule's own sites or lie outside it.
    except: Strs,
    /// How many flagged lines the scope may hold.
    allowed: RangeInclusive<usize>,
}

enum Find {
    Needles(Strs),
    /// The lines of one file (path, text) that a function flags; line 0
    /// means the file lacks a line it must hold.
    Scan(fn(&str, &str) -> Vec<usize>),
}

const fn grep(roots: Strs, needles: Strs, sample: &'static str) -> Check {
    let find = Find::Needles(needles);
    Check { roots, find, sample, rs_only: false, except: &[], allowed: 0..=0 }
}

const fn scan(roots: Strs, f: fn(&str, &str) -> Vec<usize>, sample: &'static str) -> Check {
    Check { find: Find::Scan(f), ..grep(roots, &[], sample) }
}

impl Check {
    const fn rs(self) -> Self {
        Check { rs_only: true, ..self }
    }
    const fn except(self, except: Strs) -> Self {
        Check { except, ..self }
    }
    const fn allowed(self, allowed: RangeInclusive<usize>) -> Self {
        Check { allowed, ..self }
    }
}

/// Where the tree is walked from; a root outside them names no file.
const TOPS: Strs =
    &["crates", "src", "tests", "examples", "docs", ".claude", ".github", "Cargo.toml"];
const ANYWHERE: Strs = &["crates", "src", "tests", "examples", "docs", ".claude"];
const CODE: Strs = &["crates", "src", "tests", "examples"];
const SIM: Strs = &["crates/atgpu-sim/src"];
const SIM_FILES: Strs = &["crates/atgpu-sim/src/*.rs"];
const LIBS: Strs = &["crates/*/src", "src"];
const SERVE_LIB: Strs = &["crates/atgpu-serve/src/lib.rs"];
const ENGINE: Strs = &["crates/atgpu-sim/src/engine.rs"];
const BENCH: &str = "crates/atgpu-bench/src/bin/benchmark/";
/// The 64-bit FNV offset basis and prime, as library code may spell them.
const FNV: Strs = &["cbf2_9ce4_8422_2325", "cbf29ce484222325", "0100_0000_01b3", "100000001b3"];
const FNV_IR: &str = "crates/atgpu-ir/src/kernel.rs";
const FNV_MODEL: &str = "crates/atgpu-model/src/params.rs";
#[rustfmt::skip]
const WALLED: Strs = &[
    "crates/atgpu-analyze/src/lib.rs", "crates/atgpu-ir/src/lib.rs", "crates/atgpu-serve/src/lib.rs",
    "crates/atgpu-sim/src/lib.rs", "crates/atgpu-verify/src/lib.rs", "crates/atgpu-model/src/cost.rs",
    "crates/atgpu-model/src/plan.rs", "crates/atgpu-model/src/streams.rs", "crates/atgpu-sim/src/engine.rs",
    "crates/atgpu-sim/src/uop.rs", "crates/atgpu-sim/src/memo.rs",
];

#[rustfmt::skip]
const RULES: &[Rule] = &[
    Rule { name: "Layering (planning stays out of the simulator)",
        why: "atgpu-model::plan owns apportionment, its objective and the takeover rule; the simulator executes plans",
        checks: &[grep(SIM, &["plan_cost", "balanced_units", "round_quotas"], "let quotas = round_quotas(&units);")] },
    Rule { name: "A lone device is the one-device cluster",
        why: "run_cluster_program_on is the one run body, seeding every link by one rule; analyze_cluster_program is the one analysis",
        checks: &[grep(SIM, &["run_rounds("], "    run_rounds(&mut links, program, config)?;").rs()
                .except(&["crates/atgpu-sim/src/links.rs"]).allowed(1..=1),
            grep(&["crates/atgpu-sim/src/driver.rs"], &["Links", "Device::"], "let device = Device::new(spec);"),
            grep(ANYWHERE, &["analyze_program(", r"\bProgramAnalysis", "RoundAnalysis"], "let a = analyze_program(&p, &m)?;")
                .except(&[BENCH]),
            scan(SIM_FILES, run_body_closure, "pub fn run_on(c: &Cluster, seed: impl Fn(u64, usize) -> u64) {"),
            grep(SIM, &["|_| config.seed"], "let links = Links::new(n, |_| config.seed);")] },
    Rule { name: "One device, one clock (no second execution mode, no spawn in the device)",
        why: "a device co-simulates its MPs in global time order on the caller's thread; cluster.rs holds the one fan-out",
        checks: &[grep(ANYWHERE, &["ExecMode::Parallel", "run_parallel"], "ExecMode::Parallel => self.run_parallel(kernel),"),
            grep(&["crates/atgpu-sim/src/device.rs"], &["thread::"], "std::thread::spawn(move || mp.run());")] },
    Rule { name: "One launch dispatch, one trace export",
        why: "run_launch is the one launch body, on_threads the one scoped-thread site, chrome_trace_json the one Trace writer",
        checks: &[grep(LIBS, &["fn run_written_through", "_report_trace_json", "fn round_starts", "fn sim_round_starts",
                "fn cluster_round_starts"], "fn sim_report_trace_json(report: &SimReport) -> String {").rs(),
            scan(SIM_FILES, scoped_threads, "    std::thread::scope(|s| {").allowed(0..=1)] },
    Rule { name: "One timing source (no record/replay trace beside the row's closed forms)",
        why: "an access's timing is computed from its row as it executes, and a kernel cache entry is the compiled program alone",
        checks: &[grep(CODE, &["TraceRole", "begin_record", "begin_replay", "take_trace", "seeded_trace",
            "recorded_trace", "with_replay", ".replayable", "is_block_invariant_mod", "is_residue_invariant_mod"],
            "if entry.replayable { exec.begin_replay(&trace); }")] },
    Rule { name: "A device holds no settings (every SimConfig field is per-run)",
        why: "a Device / Cluster is an immutable value: every setting travels with the run that names it",
        checks: &[grep(ANYWHERE, &["configure_devices", "configure_cache", "configure_watchdog", "cache_capacity",
                "set_enabled", "set_capacity"], "device.configure_cache(false);"),
            grep(&["crates/atgpu-sim/src/device.rs", "crates/atgpu-sim/src/cache.rs"], &["Atomic"], "    budget: AtomicU64,")] },
    Rule { name: "A run is configured by what runs differ in (the oracles live at the launch level)",
        why: "the reference interpreter and race detector are launch-level doors; LinkParams::cost_ms states α + β·w once",
        checks: &[grep(ANYWHERE, &["use_reference", "SimConfig::detect_races"],
                "let config = SimConfig { use_reference: true, ..SimConfig::default() };"),
            grep(&["crates/atgpu-sim/src/xfer.rs"], &["alpha_ms +", "beta_ms_per_word *"],
                "let ms = link.alpha_ms + link.beta_ms_per_word * w as f64;")] },
    Rule { name: "Expression (2) is stated once",
        why: "each term is one function in cost.rs, priced by one walk behind three doors; k′·ℓ is occupancy::device_capacity",
        checks: &[grep(ANYWHERE, &["streamed_evaluate", "StreamedCost", r"\bcluster_cost(", r"\batgpu_cost(", r"\bswgpu_cost(",
                r"\bperfect_cost(", r"\bstream_schedule(", "memo_capacity", "PredictedSpan", "schedule_round_spans"],
                "let c = cluster_cost(&p, &spec)?;"),
            grep(&["crates/atgpu-model/src/cost.rs"], &["out.transfer_in +=", "out.transfer_out +=", "out.kernel +=",
                "out.sync +=", "kernel_ms([a-z_]+, 1.0,", "for [a-z_]+ in &[a-z_]+.rounds"], "for round in &analysis.rounds {"),
            grep(&["crates/atgpu-model/src", "crates/atgpu-sim/src"], &[".advance("], "timeline.advance(ms);"),
            grep(&["crates/*/src"], &[".k_prime *", "k_prime as usize"], "let capacity = spec.k_prime * spec.h_limit;")] },
    Rule { name: "One perf harness (the repo benchmark measures, probe attributes)",
        why: "the repo benchmark measures host time and probe attributes it; nothing else reads a clock or keeps a speed proof",
        checks: &[grep(&["crates", "src", "tests", "examples", "docs", ".claude", "Cargo.toml", ".github"],
                &["criterion::", "criterion =", "criterion.workspace", "criterion_group", "ATGPU_BENCH_FAST",
                "bin throughput", "throughput.rs", "atgpu_bench::"], "criterion_group!(benches, bench_engine);")
                .except(&[BENCH]),
            grep(&["crates/*/src", "crates/*/tests", "src", "tests"], &["std::time", "Instant::", ".elapsed()"],
                "let t0 = std::time::Instant::now();").except(&["crates/atgpu-bench/"]),
            grep(&["crates", "src", "tests"], &["analyze_init", "dirty_regs", "smem_clean"],
                "if exec.dirty_regs { exec.regs.fill(0); }")] },
    Rule { name: "A launch costs its blocks (lowering in machine integers, one scratch per MP)",
        why: "the block and bank rules live in atgpu_ir::affine, and an instruction's rows are the MP's Scratch",
        checks: &[grep(&["crates/atgpu-sim/src/uop.rs"], &["i128"], "let span = hi as i128 - lo as i128;"),
            scan(ENGINE, block_exec_rows, "pub struct BlockExec {\n    addr_buf: Vec<i64>,\n}")] },
    Rule { name: "An instruction costs its row (predicates are row compares, stepping does not panic)",
        why: "a branch predicate is its operand rows compared into mask bits; code on a submission's path denies panics",
        checks: &[grep(ENGINE, &["PredExpr::eval", "eval_pred", "pred.eval("], "let on = pred.eval(&lane_regs);"),
            scan(WALLED, deny_wall, "#![deny(clippy::unwrap_used, clippy::expect_used)]")] },
    Rule { name: "A site carries no table (a row's cost is the closed form of its rule)",
        why: "a row's transactions and bank degree are atgpu_ir::affine's rules, computed as each access executes",
        checks: &[grep(&["crates", "src", "tests"], &["txn_table", "full_degree"], "let txns = site.txn_table[residue];")] },
    Rule { name: "One walk over a kernel body (the analyser and the lowering read the same lane facts)",
        why: "atgpu_ir::lanemask::walk states the lane mask, trip counts and register facts once for every consumer",
        checks: &[grep(&["crates"], &["LaneValues::new", "arm_masks(", "kill_written("], "let mut lanes = LaneValues::new(b);")
            .except(&["crates/atgpu-ir/src/lanemask.rs"])] },
    Rule { name: "An address's extent is stated once",
        why: "AffineAddr::corners is an address's reach and affine::gcd the one gcd (warp.rs, the oracle, keeps its own)",
        checks: &[grep(ANYWHERE, &["fn affine_range", "fn touched_range", "fn masked_affine_range", "fn masked_touched_range",
                "witness_at_extreme", "struct DisplayAddr", "struct AddrText"], "fn touched_range(a: &AffineAddr) -> (i128, i128) {"),
            grep(CODE, &["fn gcd(", "fn gcd<"], "fn gcd(a: u64, b: u64) -> u64 {")
                .except(&["crates/atgpu-ir/src/affine.rs", "crates/atgpu-sim/src/warp.rs"])] },
    Rule { name: "A copy moves only what its destination does not hold (one copy rule, no mutable heap view)",
        why: "every copy goes through gmem.rs::copy, which skips chunks by tag; a write no tag sees breaks that rule",
        checks: &[grep(&["crates/atgpu-sim/src/gmem.rs"], &["fn words_mut"], "pub fn words_mut(&mut self) -> &mut [i64] {"),
            grep(CODE, &["gmem[^;]*.copy_from_slice", "gmems[^;]*.copy_from_slice", "replica[^;]*.copy_from_slice",
                "words_mut[^;]*.copy_from_slice"], "gmems[d].words_mut()[..n].copy_from_slice(&src);")
                .except(&["crates/atgpu-sim/src/gmem.rs"])] },
    Rule { name: "A run's memory outlives it as pages (one source of zeroed words)",
        why: "words come from gmem::zeroed (its rezero or fresh), and serve's zero inputs from gmem::zero_words",
        checks: &[scan(&["crates/atgpu-sim/src/gmem.rs", "crates/atgpu-sim/src/driver.rs"], stray_allocations,
                "    let words = vec![0; n];"),
            grep(SERVE_LIB, &["vec![0;", "vec![0i64;"], "let input = vec![0i64; len];")] },
    Rule { name: "A launch reuses only its predecessor",
        why: "the verifier and the analyser reuse a launch's work only for the next launch, when Kernel::same_structure holds",
        checks: &[grep(&["crates/atgpu-verify/src/lib.rs", "crates/atgpu-analyze/src/analyze.rs"], &["HashMap", "cache_key("],
            "let mut seen: HashMap<u64, Findings> = HashMap::new();")] },
    Rule { name: "A memo key names one question",
        why: "the kernel cache confirms each hit against its entry; serve keys its memos with Keys, never program_key",
        checks: &[grep(LIBS, &["Borrow<", "get_key_value", "KeyParts", "dyn Keyed", "query_key"],
                "impl Borrow<KeyParts> for Key {").rs(),
            grep(SERVE_LIB, &["program_key("], "let key = program_key(&program);")] },
    Rule { name: "One structural hasher (FNV's constants live in atgpu_ir::Fnv1a and its mirror spec_key)",
        why: "every unkeyed key is Fnv1a's word step; the model crate cannot depend on the IR, so ClusterSpec::spec_key repeats it",
        checks: &[grep(LIBS, FNV, "    let mut h: u64 = 0xcbf2_9ce4_8422_2325;").rs().except(&[FNV_IR, FNV_MODEL, BENCH]),
            grep(&[FNV_IR, FNV_MODEL], FNV, "        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);").allowed(4..=4)] },
    Rule { name: "A quote prices a kept analysis",
        why: "serve keeps each program's CostInputs under its keyed shape and prices every spec from them",
        checks: &[grep(&["crates/atgpu-serve/src"], &[r"\bpredict\s*(", r"\banalyze_cluster_program\s*(",
            r"\bstream_schedules\s*(", r"\bcluster_cost_streamed\s*("], "let cost = predict(&program, &machine, &spec)?;")] },
    Rule { name: "A program is keyed once",
        why: "Program::edit, the only mutable access, empties the kept digest; serve walks a program only in Keys::program",
        checks: &[scan(&["crates/atgpu-ir/src/*.rs"], program_pub_fields, "pub struct Program {\n    pub body: ProgramBody,\n}"),
            grep(&["crates/*/src", "crates/*/tests", "crates/*/examples", "src", "tests", "examples"],
                &[r"impl\s+DerefMut\s+for\s+Program\b", r"impl\s+std::ops::DerefMut\s+for\s+Program\b"],
                "impl DerefMut for Program {").rs(),
            scan(&["crates/atgpu-serve/src/*.rs"], program_walks, "fn admit(p: &Program) -> u64 { digest(shape(p)) }")] },
    Rule { name: "A program is checked at one door",
        why: "validate_program states what a valid program is and Program::check decides it once (the benchmark times it)",
        checks: &[grep(&["crates/*/src"], &["validate_program("], "    validate_program(&program)?;").rs()
                .except(&["crates/atgpu-ir/src/validate.rs", "crates/atgpu-ir/src/program.rs", BENCH]),
            grep(SIM, &["StreamOutOfRange"], "return Err(SimError::StreamOutOfRange { stream });")] },
    Rule { name: "A repeat quote hashes no cluster",
        why: "the server keys and validates its own spec once, in CostServer::new; Keys::quote hashes two words",
        checks: &[scan(&["crates/atgpu-serve/src/price.rs"], quote_hashes_a_spec,
                "pub fn quote(&self, program: u64, spec: &ClusterSpec) -> u64 {"),
            scan(SERVE_LIB, spec_keyed_per_request, "pub fn submit(&self) { let k = self.keys.spec(&spec, &m); }")] },
    Rule { name: "A cost parameter has one source",
        why: "every model constant is a GpuSpec field read through derived_cost_params where a caller prices",
        checks: &[grep(&["crates", "src", "tests", "examples", "docs", ".claude", "Cargo.toml"], &["atgpu_calibrate",
            "atgpu-calibrate", "calibrate_device", "e6_calibration", "cfg.params", "params: spec.derived"],
            "let params = calibrate_device(&spec);").except(&[BENCH])] },
    Rule { name: "The model states each fact once",
        why: "a cost function reads γ, λ, σ from its GpuSpec and α, β from its LinkParams; CostParams is only their view",
        checks: &[grep(&["crates/*/src", "src", "examples"], &["asymptotics", "BigO", "fn bounds(", r"CostParams::unit\b",
                r"CostParams::gtx650_like\b"], "let p = CostParams::unit();"),
            scan(&["crates/*/src", "src", "examples"], cost_params_parameter,
                "pub fn kernel_ms(k: &KernelAnalysis, params: &CostParams) -> f64 {")] },
    Rule { name: "Errors keep their identity (no laundering in the experiment harness)",
        why: "atgpu-exp's ExpError carries analyser, model, serve and I/O errors as themselves, propagated with ?",
        checks: &[grep(&["crates/atgpu-exp/src"], &["AlgosError::InvalidSize"],
            "    .map_err(|e| AlgosError::InvalidSize { reason: e.to_string() })?;")] },
    Rule { name: "A simulated number does not depend on the building host",
        why: ".cargo/config.toml picks the codegen target; library code never branches on it, so every build answers alike",
        checks: &[grep(LIBS, &["target_feature", "is_x86_feature_detected", "target_arch", "std::arch::", "core::arch::"],
            "if is_x86_feature_detected!(\"avx512f\") { return rows_avx512(a, b); }")] },
];

/// A file of the scanned tree, by its path from the repository root.
struct File {
    path: String,
    text: String,
}

/// Every file under `TOPS`, in path order.
fn tree() -> Vec<File> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut todo: Vec<PathBuf> = TOPS.iter().map(PathBuf::from).collect();
    let mut files = Vec::new();
    while let Some(rel) = todo.pop() {
        let abs = root.join(&rel);
        if abs.is_dir() && rel.file_name().is_some_and(|n| n != "target") {
            let entries =
                std::fs::read_dir(&abs).unwrap_or_else(|e| panic!("{}: {e}", rel.display()));
            todo.extend(entries.map(|e| rel.join(e.expect("a directory entry").file_name())));
        } else if abs.is_file() && rel != Path::new(SELF) {
            let text = std::fs::read(&abs).unwrap_or_else(|e| panic!("{}: {e}", rel.display()));
            let text = String::from_utf8_lossy(&text).into_owned();
            files.push(File { path: rel.to_string_lossy().into_owned(), text });
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    files
}

/// Whether `path` is `root` or lies below it; a `*` in a component of the
/// root stands for any run of characters.
fn under(root: &str, path: &str) -> bool {
    let mut parts = path.split('/');
    root.split('/').all(|r| {
        parts.next().is_some_and(|p| match r.split_once('*') {
            Some((pre, suf)) => {
                p.len() >= pre.len() + suf.len() && p.starts_with(pre) && p.ends_with(suf)
            }
            None => r == p,
        })
    })
}

impl Check {
    fn covers(&self, path: &str) -> bool {
        self.roots.iter().any(|r| under(r, path))
            && (!self.rs_only || path.ends_with(".rs"))
            && !self.except.iter().any(|e| path.starts_with(e))
    }

    fn hits(&self, file: &File) -> Vec<usize> {
        let needles = match self.find {
            Find::Scan(scan) => return scan(&file.path, &file.text),
            Find::Needles(needles) => needles,
        };
        let mut hits = BTreeSet::new();
        for needle in needles {
            let anchor = anchor(needle);
            if file.text.contains(&anchor) {
                let flagged =
                    numbered(&file.text).filter(|(_, l)| l.contains(&anchor) && occurs(needle, l));
                hits.extend(flagged.map(|(n, _)| n));
            }
        }
        hits.into_iter().collect()
    }

    /// The rule's failure on `tree` if the number of flagged lines is not
    /// in `allowed`, naming each of them.
    fn failure(&self, rule: &Rule, tree: &[&File]) -> Option<String> {
        let mut sites = Vec::new();
        for file in tree.iter().filter(|f| self.covers(&f.path)) {
            for n in self.hits(file) {
                let line = n.checked_sub(1).and_then(|i| file.text.lines().nth(i));
                let line = line.map_or("(the file lacks it)", str::trim);
                sites.push(format!("\n  {}:{n}: {line}", file.path));
            }
        }
        let (count, allowed) = (sites.len(), &self.allowed);
        let head =
            format!("{}: {}\n  {count} lines flagged, {allowed:?} allowed:", rule.name, rule.why);
        (!allowed.contains(&count)).then(|| head + &sites.concat())
    }
}

/// A needle token that matches a run of bytes: the token, the run's
/// shortest length and the bytes it may hold.
type Class = (&'static str, usize, fn(u8) -> bool);

const CLASSES: [Class; 4] = [
    (r"\s*", 0, |c| b" \t\n\r\x0b\x0c".contains(&c)),
    (r"\s+", 1, |c| b" \t\n\r\x0b\x0c".contains(&c)),
    ("[a-z_]+", 1, |c| c.is_ascii_lowercase() || c == b'_'),
    ("[^;]*", 0, |c| c != b';'),
];

/// The longest literal run of `needle`: a line holding the needle holds it.
fn anchor(needle: &str) -> String {
    let tokens = CLASSES.iter().map(|c| c.0).chain([r"\b"]);
    let runs = tokens.fold(needle.to_string(), |s, t| s.replace(t, "\n"));
    runs.split('\n').max_by_key(|r| r.len()).unwrap_or_default().to_string()
}

/// Whether `needle` occurs in `line`.
fn occurs(needle: &str, line: &str) -> bool {
    (0..=line.len()).any(|i| occurs_at(needle.as_bytes(), line.as_bytes(), i))
}

fn occurs_at(n: &[u8], l: &[u8], i: usize) -> bool {
    let word_at = |j: Option<usize>| j.and_then(|j| l.get(j)).is_some_and(|&c| word(c.into()));
    if let Some(rest) = n.strip_prefix(br"\b") {
        return word_at(i.checked_sub(1)) != word_at(Some(i)) && occurs_at(rest, l, i);
    }
    for (token, min, class) in CLASSES {
        if let Some(rest) = n.strip_prefix(token.as_bytes()) {
            let run = l[i..].iter().take_while(|c| class(**c)).count();
            return (min..=run).rev().any(|k| occurs_at(rest, l, i + k));
        }
    }
    match n.split_first() {
        None => true,
        Some((c, rest)) => l.get(i) == Some(c) && occurs_at(rest, l, i + 1),
    }
}

fn word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn numbered(text: &str) -> impl Iterator<Item = (usize, &str)> {
    (1..).zip(text.lines())
}

fn lines_of<'a>(lines: impl Iterator<Item = (usize, &'a str)>) -> Vec<usize> {
    lines.map(|(n, _)| n).collect()
}

/// The lines before the file's test module.
fn library(text: &str) -> impl Iterator<Item = (usize, &str)> {
    numbered(text).take_while(|(_, l)| !l.starts_with("#[cfg(test)]"))
}

/// The lines of every block from a line `start` accepts through the next
/// line that begins with `}`.
fn blocks(text: &str, start: impl Fn(&str) -> bool) -> impl Iterator<Item = (usize, &str)> {
    let mut inside = false;
    numbered(text).filter(move |&(_, l)| {
        let keep = inside || start(l);
        inside = keep && !(inside && l.starts_with('}'));
        keep
    })
}

/// The lines of a signature of one of `fns` (from `fn name` through the
/// first `{`) that hold one of `needles`.
fn in_signature(text: &str, fns: &[&str], needles: &[&str]) -> Vec<usize> {
    let mut sig = false;
    lines_of(numbered(text).filter(|(_, l)| {
        sig |= fns.iter().any(|f| l.contains(f));
        let hit = sig && needles.iter().any(|n| l.contains(n));
        sig &= !l.contains('{');
        hit
    }))
}

/// The name after the line's first `fn `.
fn fn_name(line: &str) -> Option<&str> {
    line.match_indices("fn ").find_map(|(i, _)| {
        let rest = &line[i + 3..];
        let end = rest.find(|c| !word(c)).unwrap_or(rest.len());
        (end > 0).then(|| &rest[..end])
    })
}

fn run_body_closure(_: &str, text: &str) -> Vec<usize> {
    let fns =
        ["fn run_on(", "fn run_on<", "fn run_cluster_program_on(", "fn run_cluster_program_on<"];
    in_signature(text, &fns, &["Fn(", "FnMut(", "FnOnce("])
}

fn scoped_threads(_: &str, text: &str) -> Vec<usize> {
    lines_of(library(text).filter(|(_, l)| l.contains("thread::scope")))
}

fn block_exec_rows(_: &str, text: &str) -> Vec<usize> {
    let rows = [r"\baddr_buf\b", r"\bval_buf\b", r"\bop_a\b", r"\bop_b\b"];
    let fields = blocks(text, |l| l.starts_with("pub struct BlockExec"));
    lines_of(fields.filter(|(_, l)| rows.iter().any(|r| occurs(r, l))))
}

fn deny_wall(path: &str, text: &str) -> Vec<usize> {
    let extra = match path {
        "crates/atgpu-verify/src/lib.rs" => ", clippy::indexing_slicing",
        "crates/atgpu-sim/src/engine.rs" | "crates/atgpu-sim/src/uop.rs" => ", clippy::unreachable",
        _ => "",
    };
    let wall = format!("#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic{extra})]");
    Vec::from_iter(text.lines().all(|l| l != wall).then_some(0))
}

/// A word buffer allocated before the tests, outside `gmem::zeroed`'s
/// `rezero` and `fresh`.
fn stray_allocations(_: &str, text: &str) -> Vec<usize> {
    let helpers =
        lines_of(blocks(text, |l| l.starts_with("fn rezero(") || l.starts_with("fn fresh<")));
    let allocs = ["vec![0", "vec![ZEROS", ".resize(", "try_reserve"];
    lines_of(
        library(text).filter(|(n, l)| !helpers.contains(n) && allocs.iter().any(|a| l.contains(a))),
    )
}

fn program_pub_fields(_: &str, text: &str) -> Vec<usize> {
    let head = "pub struct Program {";
    let public = |l: &str| {
        l.trim_start().strip_prefix("pub").is_some_and(|r| r.starts_with([' ', '\t', '(']))
    };
    lines_of(
        blocks(text, |l| l.starts_with(head)).filter(|(_, l)| !l.starts_with(head) && public(l)),
    )
}

/// A serve line outside its tests that hashes or walks a program, unless
/// it is in `Keys::program` (or `program_key`'s call of `shape`).
fn program_walks(_: &str, text: &str) -> Vec<usize> {
    let mut infn = "";
    let shape_call = |l: &str| {
        l.match_indices("shape(")
            .any(|(i, _)| i > 0 && !matches!(l.as_bytes()[i - 1], b'A'..=b'Z' | b'a'..=b'z' | b'_'))
    };
    lines_of(library(text).filter(|&(_, l)| {
        infn = fn_name(l).unwrap_or(infn);
        let walks = l.contains(".keyed(") || l.contains("hash_structure(") || shape_call(l);
        walks
            && !l.contains("fn shape(")
            && infn != "program"
            && !(infn == "program_key" && l.contains("shape("))
    }))
}

fn quote_hashes_a_spec(_: &str, text: &str) -> Vec<usize> {
    in_signature(text, &["fn quote("], &["ClusterSpec"])
}

/// A serve line outside its tests that keys or validates a spec, unless it
/// is in `CostServer::new` or the what-if (`Some(spec) =>`) arm of `price_on`.
fn spec_keyed_per_request(_: &str, text: &str) -> Vec<usize> {
    let (mut infn, mut arm) = ("", "");
    lines_of(library(text).filter(|&(_, l)| {
        if let Some(name) = fn_name(l) {
            (infn, arm) = (name, "");
        }
        arm = if l.contains("None =>") { "none" } else { arm };
        arm = if occurs("Some([a-z_]+) =>", l) { "some" } else { arm };
        let keys = l.contains("keys.spec(") || l.contains(".validate()");
        keys && infn != "new" && !(infn == "price_on" && arm == "some")
    }))
}

/// A line holding `[mut] name: [&][mut] CostParams` at its start or after
/// a `(`, `,` or `|`.
fn cost_params_parameter(_: &str, text: &str) -> Vec<usize> {
    lines_of(numbered(text).filter(|&(_, l)| {
        let mut starts =
            std::iter::once(0).chain(l.match_indices(['(', ',', '|']).map(|(i, _)| i + 1));
        starts.any(|i| typed_cost_params(&l[i..]))
    }))
}

fn typed_cost_params(s: &str) -> bool {
    fn unmut(s: &str) -> &str {
        s.strip_prefix("mut")
            .filter(|r| r.starts_with(char::is_whitespace))
            .unwrap_or(s)
            .trim_start()
    }
    let s = s.trim_start();
    // `mut` before the name is optional: as a keyword, or as the name itself.
    [s, unmut(s)].into_iter().any(|s| {
        let name = s.find(|c| !word(c)).unwrap_or(s.len());
        let Some(ty) = s[name..].trim_start().strip_prefix(':').map(str::trim_start) else {
            return false;
        };
        let ty = unmut(ty.strip_prefix('&').unwrap_or(ty).trim_start());
        name > 0
            && !s.starts_with(|c: char| c.is_ascii_digit())
            && ty.strip_prefix("CostParams").is_some_and(|r| !r.starts_with(word))
    })
}

#[test]
fn the_tree_keeps_every_rule() {
    let files = tree();
    let tree: Vec<&File> = files.iter().collect();
    let mut failures = Vec::new();
    for rule in RULES {
        for check in rule.checks {
            for root in check.roots.iter().filter(|r| !files.iter().any(|f| under(r, &f.path))) {
                failures.push(format!("{}: the root {root} names no file", rule.name));
            }
            failures.extend(check.failure(rule, &tree));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Each check's sample, added to the tree as a file in the check's scope,
/// fails the check under its rule's name.
#[test]
fn every_sample_is_flagged() {
    let files = tree();
    for rule in RULES {
        for check in rule.checks {
            let path = files.iter().find(|f| check.covers(&f.path)).map(|f| f.path.clone());
            let path = path.unwrap_or_else(|| panic!("{}: no file in scope", rule.name));
            let sample = File { path, text: check.sample.into() };
            let failure = check.failure(rule, &files.iter().chain([&sample]).collect::<Vec<_>>());
            let named = failure.is_some_and(|f| f.starts_with(rule.name));
            assert!(named, "{}: sample {:?} is not flagged", rule.name, check.sample);
        }
    }
}
