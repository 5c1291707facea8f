//! A replicated key-value store on the multi-instance layer — the workload
//! the paper's introduction motivates: consensus as the core of a
//! replicated service that must recover fast when the network stabilizes.
//!
//! Commands (`SET key value`) are interned to compact ids, submitted to
//! different replicas, sequenced by the anchored leader, and applied in
//! slot order at every replica; all stores converge to the same state.
//!
//! ```sh
//! cargo run --example replicated_log
//! ```

use esync::core::paxos::multi::MultiPaxos;
use esync::core::types::{ProcessId, ShardId, Value};
use esync::sim::{PreStability, Scenario, SimConfig, SimTime, World};
use std::collections::BTreeMap;

/// A tiny command language, interned to `Value` ids for the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SetCmd {
    key: String,
    value: String,
}

#[derive(Debug, Default)]
struct CommandTable {
    commands: Vec<SetCmd>,
}

impl CommandTable {
    fn intern(&mut self, cmd: SetCmd) -> Value {
        self.commands.push(cmd);
        Value::new(self.commands.len() as u64 - 1)
    }

    fn resolve(&self, v: Value) -> &SetCmd {
        &self.commands[v.get() as usize]
    }
}

/// Applies a decided log (commands in slot order) to a key-value store.
fn apply(table: &CommandTable, log: impl Iterator<Item = Value>) -> BTreeMap<String, String> {
    let mut kv = BTreeMap::new();
    for v in log {
        let cmd = table.resolve(v);
        kv.insert(cmd.key.clone(), cmd.value.clone());
    }
    kv
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 5;
    let mut table = CommandTable::default();
    let workload = [
        (0u32, 400u64, "user:42", "alice"),
        (1, 420, "user:43", "bob"),
        (2, 440, "quota:42", "100GB"),
        (3, 460, "user:42", "alice-renamed"),
        (4, 480, "quota:43", "250GB"),
        (0, 500, "region", "eu-west"),
    ];

    let mut scenario = Scenario::none();
    for (pid, at_ms, key, value) in &workload {
        let id = table.intern(SetCmd {
            key: key.to_string(),
            value: value.to_string(),
        });
        scenario = scenario.submit(ProcessId::new(*pid), SimTime::from_millis(*at_ms), id);
    }

    // A rough start: chaos until TS = 250ms, then a stable network. The
    // leader anchors shortly after TS; every command needs only one
    // 2a/2b exchange.
    let cfg = SimConfig::builder(n)
        .seed(99)
        .stability_at_millis(250)
        .pre_stability(PreStability::chaos())
        .scenario(scenario)
        .build()?;
    let mut world = World::new(cfg, MultiPaxos::new());
    world.run_until(SimTime::from_secs(3));

    let leader = ProcessId::all(n)
        .find(|&p| world.process(p).is_anchored())
        .expect("a leader anchored after stability");
    println!("replicated KV over multi-instance session Paxos, n={n}");
    println!("anchored leader: {leader}\n");

    let log_of = |pid| world.process(pid).shard(ShardId::ZERO);
    let reference = apply(&table, log_of(ProcessId::new(0)).log_values());
    for pid in ProcessId::all(n) {
        let log = log_of(pid);
        let kv = apply(&table, log.log_values());
        println!("{pid}: {} log entries, kv state {:?}", log.log().len(), kv);
        assert_eq!(kv, reference, "replica state diverged");
    }

    println!("\nall {n} replicas converged to the same store:");
    for (k, v) in &reference {
        println!("  {k} = {v}");
    }
    Ok(())
}
