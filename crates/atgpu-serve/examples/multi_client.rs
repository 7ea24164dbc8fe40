//! Multi-client serving demo: three tenants share one simulated
//! 4-device cluster through a [`CostServer`].
//!
//! * `trader` floods the queue with executions of one program;
//! * `analyst` prices a sweep of what-if cluster variants (answered
//!   analytically, then from the memo);
//! * `batch` submits a few large jobs and relies on tenant fairness to
//!   not starve behind `trader`'s flood.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p atgpu-serve --example multi_client
//! ```

use atgpu_algos::vecadd::VecAdd;
use atgpu_algos::workload::{test_machine, test_spec, Workload};
use atgpu_model::ClusterSpec;
use atgpu_serve::{CostServer, ServeError, ServerConfig};
use std::time::Instant;

fn main() {
    let machine = test_machine();
    let spec = ClusterSpec::homogeneous(4, test_spec());
    let server = CostServer::new(
        machine,
        spec,
        ServerConfig { queue_capacity: 32, ..ServerConfig::default() },
    )
    .expect("server");

    let small = VecAdd::new(32 * 16, 7).build_sharded(&machine, 4).expect("builds");
    let large = VecAdd::new(32 * 96, 8).build_sharded(&machine, 4).expect("builds");

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        // Tenant 1: a flood of small executions.
        let trader = &server;
        let small_ref = &small;
        scope.spawn(move || {
            let mut bounced = 0u32;
            for i in 0..40 {
                match trader.submit("trader", &small_ref.program, small_ref.inputs.clone()) {
                    Ok(r) => {
                        if i == 0 {
                            println!("[trader] first run: {:.3} simulated ms", r.total_ms());
                        }
                    }
                    Err(ServeError::QueueFull { .. }) => bounced += 1,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            println!("[trader] 40 submissions, {bounced} bounced by backpressure");
        });

        // Tenant 2: what-if pricing over candidate clusters.
        let analyst = &server;
        let large_ref = &large;
        scope.spawn(move || {
            let base = analyst.price(&large_ref.program).expect("quote");
            println!("[analyst] base quote {:.3} ms via {:?}", base.total_ms, base.source);
            for slow_factor in [2.0, 4.0, 8.0] {
                let mut what_if = analyst.cluster().spec().clone();
                what_if.host_links[0] = what_if.host_links[0].scaled(slow_factor);
                let q = analyst.price_what_if(&large_ref.program, &what_if).expect("quote");
                println!(
                    "[analyst] host link 0 slowed {slow_factor}x -> {:.3} ms via {:?}",
                    q.total_ms, q.source
                );
            }
            // Asking the base question again is a memo hit.
            let again = analyst.price(&large_ref.program).expect("quote");
            println!("[analyst] repeat quote via {:?}", again.source);
        });

        // Tenant 3: a few wide jobs; fairness keeps them moving.
        let batch = &server;
        let large_ref = &large;
        scope.spawn(move || {
            for _ in 0..3 {
                let r = batch
                    .submit("batch", &large_ref.program, large_ref.inputs.clone())
                    .expect("batch job");
                println!("[batch] wide job done: {:.3} simulated ms", r.total_ms());
            }
        });
    });

    let stats = server.stats();
    println!(
        "\nserved in {:.1} host ms — admitted {} (rejected {}), pricing: {} memo / {} analytic / \
         {} simulated ({:.0}% fast path)",
        t0.elapsed().as_secs_f64() * 1e3,
        stats.admission.admitted_total,
        stats.admission.rejected_total,
        stats.price.memo_hits,
        stats.price.analytic,
        stats.price.simulated,
        100.0 * stats.price.fast_fraction(),
    );
}
