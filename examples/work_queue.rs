//! A distributed work queue: competing consumers over causal delivery.
//!
//! A `QueueAgent` (JMS-queue semantics) on the dispatcher's server
//! round-robins jobs among worker agents spread over two domains. Each
//! worker reports completion back to a collector; the collector checks it
//! never hears about a result before the submission notice that caused it.
//!
//! Run with: `cargo run --example work_queue`

use std::sync::Arc;
use std::time::Duration;

use aaa_middleware::base::{AgentId, ServerId};
use aaa_middleware::mom::pubsub::{publication, subscription, QueueAgent};
use aaa_middleware::mom::{FnAgent, MomBuilder, Notification};
use aaa_middleware::topology::TopologySpec;
use parking_lot::Mutex;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Dispatch domain {0,1}; worker domain {1,2,3} via router 1.
    let spec = TopologySpec::from_domains(vec![vec![0, 1], vec![1, 2, 3]]);
    let mom = MomBuilder::new(spec).build()?;

    let queue = mom.register_agent(ServerId::new(0), 1, Box::new(QueueAgent::new()))?;

    // Collector on the dispatcher's server: records submissions and
    // completions, asserting causal sanity.
    let log: Arc<Mutex<Vec<String>>> = Default::default();
    let sink = log.clone();
    let collector = mom.register_agent(
        ServerId::new(0),
        2,
        Box::new(FnAgent::new(move |_ctx, _from, note| {
            let mut log = sink.lock();
            if let Some(job) = note.body_str() {
                if note.kind() == "done" {
                    assert!(
                        log.iter().any(|e| e == &format!("submitted {job}")),
                        "completion of {job} before its submission!"
                    );
                }
                log.push(format!(
                    "{} {job}",
                    if note.kind() == "done" {
                        "completed"
                    } else {
                        "submitted"
                    }
                ));
            }
        })),
    )?;

    // Workers on servers 2 and 3: process a job, report to the collector.
    let mut workers = Vec::new();
    for s in [2u16, 3] {
        let worker = mom.register_agent(
            ServerId::new(s),
            1,
            Box::new(FnAgent::new(move |ctx, _from, note| {
                if note.kind() == "job" {
                    ctx.send(collector, Notification::new("done", note.body().clone()));
                }
            })),
        )?;
        mom.send(worker, queue, subscription())?;
        workers.push(worker);
    }
    assert!(mom.quiesce(Duration::from_secs(5)));

    // The dispatcher submits six jobs: notice to the collector first, then
    // the job to the queue (so the notice causally precedes the result).
    let dispatcher = AgentId::new(ServerId::new(0), 9);
    for i in 0..6 {
        let job = format!("job-{i}");
        mom.send(
            dispatcher,
            collector,
            Notification::new("submitted", job.clone()),
        )?;
        mom.send(dispatcher, queue, publication("job", job))?;
    }
    assert!(mom.quiesce(Duration::from_secs(10)));

    let log = log.lock();
    for entry in log.iter() {
        println!("{entry}");
    }
    assert_eq!(log.iter().filter(|e| e.starts_with("completed")).count(), 6);
    assert!(mom.trace()?.check_causality().is_ok());
    println!("\nsix jobs round-robined over two workers; every result followed its submission");
    mom.shutdown();
    Ok(())
}
