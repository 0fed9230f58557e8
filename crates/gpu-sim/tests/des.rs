//! Property test of the command-queue DES on random acyclic schedules:
//! every span is the greedy pick of an independent oracle and starts
//! exactly where its constraints put it, the makespan covers each engine's
//! busy time, and an engine crash either preempts a command the crash-free
//! timeline runs past the crash instant or changes nothing.

use gpu_sim::{simulate, Cmd, EngineCrash, QueueError, Timeline};
use proptest::prelude::*;

struct Schedule {
    engines: usize,
    setup_s: f64,
    queues: Vec<Vec<Cmd>>,
    arrivals: Vec<f64>,
}

/// A random schedule drawn from `seed`: 1–4 engines, 1–6 queues of 0–5
/// commands, durations in quarter units (0 included, so ties occur), waits
/// only on lower-numbered queues (so the graph stays acyclic), and arrival
/// times for a prefix of the queues.
fn schedule(seed: u64) -> Schedule {
    let mut rng = TestRng::from_seed(seed);
    let mut draw = |n: usize| rng.below(n as u64) as usize;
    let quarter = |k: usize| k as f64 * 0.25;
    let engines = 1 + draw(4);
    let setup_s = quarter(draw(3));
    let mut queues: Vec<Vec<Cmd>> = Vec::new();
    for q in 0..1 + draw(6) {
        let mut cmds = Vec::new();
        for i in 0..draw(6) {
            let mut cmd = Cmd::on(draw(engines), quarter(draw(5)), format!("{q}.{i}"));
            let dq = if q > 0 { draw(q) } else { 0 };
            if q > 0 && !queues[dq].is_empty() && draw(2) == 0 {
                cmd = cmd.after(dq, draw(queues[dq].len()));
            }
            cmds.push(cmd);
        }
        queues.push(cmds);
    }
    let arrivals = (0..draw(queues.len() + 1)).map(|_| quarter(draw(8))).collect();
    Schedule { engines, setup_s, queues, arrivals }
}

fn run(s: &Schedule, crash: Option<EngineCrash>) -> Result<Timeline, QueueError> {
    simulate(s.engines, s.setup_s, &s.queues, &s.arrivals, None, crash)
}

/// Replay `tl` in schedule order against the greedy rule: each span must
/// be the ready head with the least `(start, queue)`, where a head's start
/// is the max of setup, its queue's arrival, its queue's previous span, its
/// wait's end and its engine's previous span — bit for bit.
fn check_greedy(s: &Schedule, tl: &Timeline) -> Result<(), String> {
    let mut next = vec![0; s.queues.len()];
    let mut queue_end: Vec<f64> =
        (0..s.queues.len()).map(|q| s.arrivals.get(q).copied().unwrap_or(s.setup_s)).collect();
    let mut engine_end = vec![s.setup_s; s.engines];
    let mut ends: Vec<Vec<Option<f64>>> = s.queues.iter().map(|q| vec![None; q.len()]).collect();
    let mut last_start = f64::NEG_INFINITY;
    for span in &tl.spans {
        let ready = (0..s.queues.len()).filter_map(|q| {
            let cmd = s.queues[q].get(next[q])?;
            let wait_end = match cmd.wait {
                Some((dq, di)) => ends[dq][di]?,
                None => s.setup_s,
            };
            let start = [s.setup_s, queue_end[q], wait_end, engine_end[cmd.engine]]
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max);
            Some((start, q))
        });
        let (start, q) = ready
            .min_by(|a, b| a.partial_cmp(b).unwrap())
            .ok_or("a span was scheduled with no ready head")?;
        let cmd = &s.queues[q][next[q]];
        let want = (q, next[q], cmd.engine, start, start + cmd.duration_s);
        let got = (span.queue, span.index, span.engine, span.start_s, span.end_s);
        if got != want {
            return Err(format!("span {got:?}, greedy oracle {want:?}"));
        }
        if span.start_s < last_start {
            return Err(format!("start {} after a start at {last_start}", span.start_s));
        }
        last_start = span.start_s;
        ends[q][next[q]] = Some(span.end_s);
        queue_end[q] = span.end_s;
        engine_end[cmd.engine] = span.end_s;
        next[q] += 1;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn des_is_the_greedy_schedule(seed in 0u64..1 << 48) {
        let s = schedule(seed);
        let tl = run(&s, None).unwrap();
        prop_assert_eq!(tl.spans.len(), s.queues.iter().map(Vec::len).sum::<usize>());
        if let Err(e) = check_greedy(&s, &tl) {
            prop_assert!(false, "seed {seed}: {e}");
        }
        for e in 0..s.engines {
            prop_assert!(tl.total_s - tl.setup_s >= tl.engine_busy(e), "seed {seed}: engine {e}");
        }
    }

    #[test]
    fn engine_crash_preempts_exactly_what_runs_past_it(
        seed in 0u64..1 << 48,
        victim in 0usize..4,
        at_quarters in 0usize..40,
    ) {
        let s = schedule(seed);
        let healthy = run(&s, None).unwrap();
        let crash = EngineCrash { engine: victim % s.engines, at_s: at_quarters as f64 * 0.25 };
        let on_engine_past_crash = |tl: &Timeline| {
            tl.spans.iter().any(|sp| sp.engine == crash.engine && sp.end_s > crash.at_s)
        };
        match run(&s, Some(crash)) {
            Ok(tl) => {
                prop_assert!(!on_engine_past_crash(&tl), "seed {seed}: span survived {crash:?}");
                prop_assert_eq!(tl.total_s, healthy.total_s);
            }
            Err(QueueError::EngineCrash { engine, at_s }) => {
                prop_assert_eq!((engine, at_s), (crash.engine, crash.at_s));
                prop_assert!(on_engine_past_crash(&healthy), "seed {seed}: spurious {crash:?}");
            }
            Err(e) => prop_assert!(false, "seed {seed}: unexpected {e}"),
        }
    }
}
