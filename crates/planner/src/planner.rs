//! The pure planning core: observation in, scored decisions out.
//!
//! `decide` is a function of `(config, cooldown state, rng state,
//! observation)` and nothing else — no clocks, no cluster handles — so the
//! chaos harness can call it in lockstep with injected faults and assert
//! that a replay with the same seed makes the same choices.
//!
//! Since planner v2 a decision is an [`Action`], not always a migration:
//! a hot *read-mostly* node can be relieved by provisioning a WAL-shipped
//! replica on a spare node (Lion's insight: replication serves reads
//! without moving ownership), and an idle replica is decommissioned once
//! its read demand no longer covers its WAL-ship bandwidth. The cost model
//! prices all three against each other in the same load-units.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remus_common::{NodeId, PlannerConfig, ShardId};
use remus_core::MigrationTask;

use crate::observe::{Observation, ShardStat};

/// Net 2PC hops saved per cross-shard commit when a written pair becomes
/// co-resident: a two-participant distributed commit costs ~6 hops where
/// the single-node fast path costs at most one.
const HOP_SAVINGS: f64 = 5.0;

/// Stored versions that cost one load-unit to move (snapshot-copy volume
/// normalization for the cost model).
const VERSIONS_PER_COST_UNIT: f64 = 64.0;

/// Per-window WAL appends on a shard that cost one load-unit to move
/// (catch-up replay volume normalization).
const WAL_PER_COST_UNIT: f64 = 16.0;

/// Minimum cross-shard commits between a pair in the last window before a
/// co-location move is considered.
const COLOCATION_MIN_CROSS: u64 = 4;

/// Replicas the planner keeps provisioned at once.
const MAX_REPLICAS: usize = 1;

/// Decommission floor: when the cluster-wide windowed read demand
/// (primary-served + replica-served) falls below this, a provisioned replica
/// is no longer earning its ship bandwidth and is torn down.
const REPLICA_MIN_READS: f64 = 1.0;

/// Why the planner chose a move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MoveReason {
    /// Load balancing: the owner exceeded the imbalance trigger.
    Balance {
        /// max/mean node-load ratio at decision time.
        ratio: f64,
    },
    /// Lion-style co-location: reunite a frequently co-written pair.
    Colocate {
        /// The shard this move joins.
        partner: ShardId,
        /// Cross-shard commits between the pair in the last window.
        cross: u64,
    },
    /// Read offload: the hot node is read-mostly, and a replica absorbs
    /// those reads cheaper than a migration rebalances them.
    ReadOffload {
        /// max/mean node-load ratio at decision time.
        ratio: f64,
        /// Read fraction of the hot node's windowed demand.
        read_fraction: f64,
    },
    /// The replica's read demand no longer covers its keep.
    ReplicaIdle {
        /// Cluster-wide windowed read demand at decision time.
        reads: f64,
    },
}

/// What a decision actually does to the cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Move a shard to a new owner through a live migration.
    Migrate(MigrationTask),
    /// Provision a WAL-shipped replica on `dst` to absorb the reads of
    /// `src`. Provisioning is node-grained — the replica bootstraps and
    /// applies *every* primary's stream — so `shard` only names the hot
    /// shard that tripped the trigger.
    Replicate {
        /// Hottest shard on the hot node (the trigger, for display/replay).
        shard: ShardId,
        /// The hot node whose reads the replica will absorb.
        src: NodeId,
        /// The spare node to provision.
        dst: NodeId,
    },
    /// Tear down the replica on `replica` and return the node to the
    /// primary pool.
    Decommission {
        /// The replica node to stop.
        replica: NodeId,
    },
}

/// One planned action with its score.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The action to run.
    pub action: Action,
    /// What triggered it.
    pub reason: MoveReason,
    /// Load-units gained per window (moved-off load, saved 2PC hops, or
    /// offloadable reads).
    pub benefit: f64,
    /// Load-units the action itself is estimated to cost.
    pub cost: f64,
}

impl Decision {
    /// The migration to run, when this decision is one.
    pub fn migration(&self) -> Option<&MigrationTask> {
        match &self.action {
            Action::Migrate(task) => Some(task),
            _ => None,
        }
    }
}

impl fmt::Display for Decision {
    /// A stable one-line form; chaos replay compares these strings across
    /// runs, so the format must stay deterministic.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.action, self.reason) {
            (Action::Migrate(task), MoveReason::Balance { ratio }) => write!(
                f,
                "balance {} {}->{} ratio={ratio:.3} benefit={:.3} cost={:.3}",
                task.shards[0], task.source, task.dest, self.benefit, self.cost
            ),
            (Action::Migrate(task), MoveReason::Colocate { partner, cross }) => write!(
                f,
                "colocate {} {}->{} with={partner} cross={cross} benefit={:.3} cost={:.3}",
                task.shards[0], task.source, task.dest, self.benefit, self.cost
            ),
            (
                Action::Replicate { shard, src, dst },
                MoveReason::ReadOffload {
                    ratio,
                    read_fraction,
                },
            ) => write!(
                f,
                "replicate {shard} {src}=>{dst} ratio={ratio:.3} frac={read_fraction:.3} \
                 benefit={:.3} cost={:.3}",
                self.benefit, self.cost
            ),
            (Action::Decommission { replica }, MoveReason::ReplicaIdle { reads }) => write!(
                f,
                "decommission {replica} reads={reads:.3} benefit={:.3}",
                self.benefit
            ),
            // Unreachable pairings fall back to the debug form rather than
            // panicking inside Display.
            (action, reason) => write!(
                f,
                "{action:?} {reason:?} benefit={:.3} cost={:.3}",
                self.benefit, self.cost
            ),
        }
    }
}

/// The outcome of one planner tick.
#[derive(Debug, Clone, Default)]
pub struct PlannerTick {
    /// The observation's tick counter.
    pub tick: u64,
    /// Node-load imbalance ratio at observation time.
    pub imbalance: f64,
    /// Actions to run, in order.
    pub decisions: Vec<Decision>,
}

/// The decision core. Holds only the per-shard cooldown stamps and the
/// tie-breaking RNG between ticks.
#[derive(Debug)]
pub struct Planner {
    config: PlannerConfig,
    rng: SmallRng,
    /// Tick at which each shard last had a move planned.
    last_move: BTreeMap<ShardId, u64>,
    /// Tick of the last replica-provisioning decision (anti-flap: the
    /// regular shard cooldown is keyed by shard, but a provision relieves
    /// a whole node, so it gets its own stamp).
    last_provision: Option<u64>,
}

impl Planner {
    /// A planner with `config` (the RNG is seeded from `config.seed`).
    pub fn new(config: PlannerConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        Planner {
            config,
            rng,
            last_move: BTreeMap::new(),
            last_provision: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Estimated cost of moving `stat`'s shard, in load-units: snapshot
    /// volume (stored versions) plus catch-up volume (the shard's WAL
    /// appends last window, i.e. its write rate).
    fn cost_of(&self, stat: &ShardStat) -> f64 {
        self.config.cost_weight_versions * stat.versions as f64 / VERSIONS_PER_COST_UNIT
            + self.config.cost_weight_wal * stat.load.writes / WAL_PER_COST_UNIT
    }

    fn off_cooldown(&self, shard: ShardId, tick: u64) -> bool {
        match self.last_move.get(&shard) {
            Some(&last) => tick.saturating_sub(last) >= self.config.cooldown_ticks,
            None => true,
        }
    }

    /// Forgets a shard's cooldown stamp — the executor calls this when a
    /// planned migration failed permanently, so a later tick may re-plan
    /// the move.
    pub fn note_failed(&mut self, shards: &[ShardId]) {
        for shard in shards {
            self.last_move.remove(shard);
        }
    }

    /// Forgets the provisioning stamp — the executor calls this when a
    /// replica failed to bootstrap, so a later tick may retry.
    pub fn note_replica_failed(&mut self) {
        self.last_provision = None;
    }

    /// Plans this tick's actions. An idle replica's decommission is
    /// checked first (it frees a node for everything else), then
    /// co-location moves (the more specific signal), then the
    /// replicate-or-migrate choice for the hottest node: if the node is
    /// read-mostly and a replica nets more than the best balance move, a
    /// `Replicate` is emitted and balancing is skipped this tick (offload
    /// reshapes the load picture, so re-deciding next window is cheaper
    /// than guessing); otherwise the greedy balancer runs as before. All
    /// under the shared caps: at most `max_moves_per_tick` decisions, each
    /// node in at most `node_concurrency` migrations, each shard at most
    /// once per `cooldown_ticks`.
    pub fn decide(&mut self, obs: &Observation) -> PlannerTick {
        let imbalance = obs.imbalance();
        let mut tick = PlannerTick {
            tick: obs.tick,
            imbalance,
            decisions: Vec::new(),
        };
        // Working copies the greedy loop mutates as it accepts moves. Only
        // primaries balance load; replicas own nothing and must never be
        // picked as migration destinations.
        let mut node_load: BTreeMap<NodeId, f64> = obs
            .primaries()
            .into_iter()
            .map(|n| (n, obs.node_load(n)))
            .collect();
        let mut node_uses: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut moved: BTreeSet<ShardId> = BTreeSet::new();

        if self.config.replication {
            self.plan_decommission(obs, &mut tick);
        }
        if self.config.colocation {
            self.plan_colocation(obs, &mut tick, &mut node_load, &mut node_uses, &mut moved);
        }
        let replicated = self.config.replication
            && self.plan_replication(obs, &mut tick, &node_load, &node_uses);
        if !replicated {
            self.plan_balance(obs, &mut tick, &mut node_load, &mut node_uses, &mut moved);
        }
        tick
    }

    /// Whether `shard` may move from `source` to `dest` under the caps.
    #[allow(clippy::too_many_arguments)]
    fn admissible(
        &self,
        tick: &PlannerTick,
        node_uses: &BTreeMap<NodeId, usize>,
        moved: &BTreeSet<ShardId>,
        shard: ShardId,
        source: NodeId,
        dest: NodeId,
    ) -> bool {
        tick.decisions.len() < self.config.max_moves_per_tick
            && source != dest
            && !moved.contains(&shard)
            && self.off_cooldown(shard, tick.tick)
            && node_uses.get(&source).copied().unwrap_or(0) < self.config.node_concurrency
            && node_uses.get(&dest).copied().unwrap_or(0) < self.config.node_concurrency
    }

    /// Books an accepted migration decision into the tick's working state.
    fn accept(
        &mut self,
        tick: &mut PlannerTick,
        node_load: &mut BTreeMap<NodeId, f64>,
        node_uses: &mut BTreeMap<NodeId, usize>,
        moved: &mut BTreeSet<ShardId>,
        decision: Decision,
        shard_load: f64,
    ) {
        let task = decision.migration().expect("accept() books migrations");
        let shard = task.shards[0];
        let (source, dest) = (task.source, task.dest);
        *node_load.entry(source).or_default() -= shard_load;
        *node_load.entry(dest).or_default() += shard_load;
        *node_uses.entry(source).or_default() += 1;
        *node_uses.entry(dest).or_default() += 1;
        moved.insert(shard);
        self.last_move.insert(shard, tick.tick);
        tick.decisions.push(decision);
    }

    /// Reunites frequently co-written shard pairs, hottest pair first. For
    /// each split pair the cheaper-to-move side migrates to its partner's
    /// node, provided the saved 2PC hops outweigh the migration cost.
    fn plan_colocation(
        &mut self,
        obs: &Observation,
        tick: &mut PlannerTick,
        node_load: &mut BTreeMap<NodeId, f64>,
        node_uses: &mut BTreeMap<NodeId, usize>,
        moved: &mut BTreeSet<ShardId>,
    ) {
        let mut pairs: Vec<(ShardId, ShardId, u64)> = obs
            .affinity
            .iter()
            .copied()
            .filter(|&(_, _, n)| n >= COLOCATION_MIN_CROSS)
            .collect();
        // Hottest pair first; shard-id order breaks count ties.
        pairs.sort_by(|x, y| (y.2, x.0, x.1).cmp(&(x.2, y.0, y.1)));
        for (a, b, cross) in pairs {
            let (Some(&sa), Some(&sb)) = (obs.shards.get(&a), obs.shards.get(&b)) else {
                continue;
            };
            if sa.owner == sb.owner {
                continue;
            }
            let benefit = HOP_SAVINGS * cross as f64;
            // Candidate directions: move a to b's node, or b to a's node.
            // Prefer the cheaper side, then the lighter one (disturbs node
            // balance less); shard-id order settles exact ties.
            let mut directions = [(a, sa, sb.owner, b), (b, sb, sa.owner, a)];
            directions.sort_by(|x, y| {
                (self.cost_of(&x.1), x.1.load.total())
                    .partial_cmp(&(self.cost_of(&y.1), y.1.load.total()))
                    .unwrap()
                    .then(x.0.cmp(&y.0))
            });
            for (shard, stat, dest, partner) in directions {
                let cost = self.cost_of(&stat);
                if benefit <= cost
                    || !self.admissible(tick, node_uses, moved, shard, stat.owner, dest)
                {
                    continue;
                }
                let decision = Decision {
                    action: Action::Migrate(MigrationTask::single(shard, stat.owner, dest)),
                    reason: MoveReason::Colocate { partner, cross },
                    benefit,
                    cost,
                };
                self.accept(
                    tick,
                    node_load,
                    node_uses,
                    moved,
                    decision,
                    stat.load.total(),
                );
                break;
            }
        }
    }

    /// Greedy balancing: while the (recomputed) imbalance ratio exceeds
    /// the trigger, move the hottest admissible shard off the hottest node
    /// to the least-loaded node — but only if that *strictly* lowers the
    /// source below where the destination ends up, which is what keeps a
    /// single dominant shard from ping-ponging between nodes.
    fn plan_balance(
        &mut self,
        obs: &Observation,
        tick: &mut PlannerTick,
        node_load: &mut BTreeMap<NodeId, f64>,
        node_uses: &mut BTreeMap<NodeId, usize>,
        moved: &mut BTreeSet<ShardId>,
    ) {
        loop {
            let mean: f64 = node_load.values().sum::<f64>() / node_load.len().max(1) as f64;
            if mean <= f64::EPSILON {
                return;
            }
            // Hottest node; lowest id wins ties (BTreeMap iteration order).
            let (&hot, &hot_load) = node_load
                .iter()
                .max_by(|x, y| x.1.partial_cmp(y.1).unwrap().then(y.0.cmp(x.0)))
                .unwrap();
            let ratio = hot_load / mean;
            if ratio <= self.config.imbalance_ratio {
                return;
            }
            // Hottest admissible shard on the hot node first.
            let mut candidates: Vec<(ShardId, ShardStat)> = obs
                .shards
                .iter()
                .filter(|(_, s)| s.owner == hot && s.load.total() > 0.0)
                .map(|(&id, &s)| (id, s))
                .collect();
            candidates.sort_by(|x, y| {
                y.1.load
                    .total()
                    .partial_cmp(&x.1.load.total())
                    .unwrap()
                    .then(x.0.cmp(&y.0))
            });
            let mut accepted = false;
            for (shard, stat) in candidates {
                let dest = match self.pick_dest(node_load, node_uses, hot) {
                    Some(d) => d,
                    None => return,
                };
                let shard_load = stat.load.total();
                let improves = node_load[&dest] + shard_load < node_load[&hot];
                let cost = self.cost_of(&stat);
                if !improves
                    || shard_load <= cost
                    || !self.admissible(tick, node_uses, moved, shard, hot, dest)
                {
                    continue;
                }
                let decision = Decision {
                    action: Action::Migrate(MigrationTask::single(shard, hot, dest)),
                    reason: MoveReason::Balance { ratio },
                    benefit: shard_load,
                    cost,
                };
                self.accept(tick, node_load, node_uses, moved, decision, shard_load);
                accepted = true;
                break;
            }
            if !accepted || tick.decisions.len() >= self.config.max_moves_per_tick {
                return;
            }
        }
    }

    /// The replicate-or-migrate choice for the hottest node. Emits at most
    /// one `Replicate` per tick and returns whether it did (the caller
    /// then skips balancing).
    ///
    /// Pricing, all in load-units per window:
    /// - replicate benefit = the hot node's read demand (every one of
    ///   those reads can be served at the replica's watermark);
    /// - replicate cost = bootstrap copy of *all* stored versions (the
    ///   replica applies every primary, not one shard) plus the ongoing
    ///   WAL-ship bandwidth of all writes;
    /// - the migrate alternative = the best net score a single balance
    ///   move off the hot node would achieve ([`Self::best_balance_net`]).
    fn plan_replication(
        &mut self,
        obs: &Observation,
        tick: &mut PlannerTick,
        node_load: &BTreeMap<NodeId, f64>,
        node_uses: &BTreeMap<NodeId, usize>,
    ) -> bool {
        if tick.decisions.len() >= self.config.max_moves_per_tick
            || obs.replicas.len() >= MAX_REPLICAS
        {
            return false;
        }
        if let Some(last) = self.last_provision {
            if tick.tick.saturating_sub(last) < self.config.cooldown_ticks {
                return false;
            }
        }
        let mean: f64 = node_load.values().sum::<f64>() / node_load.len().max(1) as f64;
        if mean <= f64::EPSILON {
            return false;
        }
        let (&hot, &hot_load) = node_load
            .iter()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap().then(y.0.cmp(x.0)))
            .unwrap();
        let ratio = hot_load / mean;
        if ratio <= self.config.imbalance_ratio {
            return false;
        }
        let (reads, writes) = obs.node_rw(hot);
        let demand = reads + writes;
        if demand <= 0.0 {
            return false;
        }
        let read_fraction = reads / demand;
        if read_fraction < self.config.replica_read_ratio {
            return false;
        }
        // A spare primary: owns nothing and is untouched by this tick's
        // accepted moves. Lowest id wins for determinism.
        let Some(dst) = node_load.keys().copied().find(|&n| {
            n != hot
                && !obs.shards.values().any(|s| s.owner == n)
                && node_uses.get(&n).copied().unwrap_or(0) == 0
        }) else {
            return false;
        };
        let versions: u64 = obs.shards.values().map(|s| s.versions).sum();
        let all_writes: f64 = obs.shards.values().map(|s| s.load.writes).sum();
        let cost = self.config.cost_weight_versions * versions as f64 / VERSIONS_PER_COST_UNIT
            + self.config.cost_weight_ship * all_writes / WAL_PER_COST_UNIT;
        let benefit = reads;
        if benefit <= cost {
            return false;
        }
        if self.best_balance_net(obs, node_load, hot) > benefit - cost {
            return false; // a plain migration nets more; let the balancer run
        }
        // The hottest shard on the hot node names the trigger.
        let Some(shard) = obs
            .shards
            .iter()
            .filter(|(_, s)| s.owner == hot)
            .max_by(|x, y| {
                x.1.load
                    .total()
                    .partial_cmp(&y.1.load.total())
                    .unwrap()
                    .then(y.0.cmp(x.0))
            })
            .map(|(&id, _)| id)
        else {
            return false;
        };
        self.last_provision = Some(tick.tick);
        tick.decisions.push(Decision {
            action: Action::Replicate {
                shard,
                src: hot,
                dst,
            },
            reason: MoveReason::ReadOffload {
                ratio,
                read_fraction,
            },
            benefit,
            cost,
        });
        true
    }

    /// The best net score (`moved-off load - migration cost`) any single
    /// admissible balance move off `hot` would achieve — the migrate
    /// alternative a replicate decision is priced against. `NEG_INFINITY`
    /// when no productive move exists (e.g. one dominant shard that cannot
    /// strictly improve the spread — exactly where replication shines).
    fn best_balance_net(
        &self,
        obs: &Observation,
        node_load: &BTreeMap<NodeId, f64>,
        hot: NodeId,
    ) -> f64 {
        let dest_load = node_load
            .iter()
            .filter(|(&n, _)| n != hot)
            .map(|(_, &l)| l)
            .fold(f64::INFINITY, f64::min);
        if !dest_load.is_finite() {
            return f64::NEG_INFINITY;
        }
        let hot_load = node_load.get(&hot).copied().unwrap_or(0.0);
        obs.shards
            .values()
            .filter(|s| s.owner == hot && s.load.total() > 0.0)
            .filter(|s| dest_load + s.load.total() < hot_load)
            .map(|s| s.load.total() - self.cost_of(s))
            .filter(|net| *net > 0.0)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Tears down the lowest-id replica once the cluster's windowed read
    /// demand (primary- plus replica-served) drops below its keep: the
    /// configured absolute floor, or the WAL-ship bandwidth the replica
    /// costs — whichever is higher.
    fn plan_decommission(&mut self, obs: &Observation, tick: &mut PlannerTick) {
        if obs.replicas.is_empty() || tick.decisions.len() >= self.config.max_moves_per_tick {
            return;
        }
        let reads: f64 = obs.shards.values().map(|s| s.load.read_demand()).sum();
        let writes: f64 = obs.shards.values().map(|s| s.load.writes).sum();
        let ship = self.config.cost_weight_ship * writes / WAL_PER_COST_UNIT;
        if reads >= REPLICA_MIN_READS.max(ship) {
            return;
        }
        tick.decisions.push(Decision {
            action: Action::Decommission {
                replica: obs.replicas[0],
            },
            reason: MoveReason::ReplicaIdle { reads },
            benefit: ship,
            cost: 0.0,
        });
    }

    /// The least-loaded node with concurrency budget left, excluding
    /// `hot`; the seeded RNG breaks exact ties so repeated plans with the
    /// same seed replay identically but different seeds spread load.
    fn pick_dest(
        &mut self,
        node_load: &BTreeMap<NodeId, f64>,
        node_uses: &BTreeMap<NodeId, usize>,
        hot: NodeId,
    ) -> Option<NodeId> {
        let eligible: Vec<(NodeId, f64)> = node_load
            .iter()
            .filter(|(&n, _)| {
                n != hot && node_uses.get(&n).copied().unwrap_or(0) < self.config.node_concurrency
            })
            .map(|(&n, &l)| (n, l))
            .collect();
        let min = eligible
            .iter()
            .map(|&(_, l)| l)
            .fold(f64::INFINITY, f64::min);
        let ties: Vec<NodeId> = eligible
            .into_iter()
            .filter(|&(_, l)| l <= min)
            .map(|(n, _)| n)
            .collect();
        match ties.len() {
            0 => None,
            1 => Some(ties[0]),
            n => Some(ties[self.rng.gen_range(0..n)]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_cluster::ShardLoad;
    use std::collections::BTreeMap;

    fn shard(owner: u32, reads: f64, writes: f64) -> ShardStat {
        ShardStat {
            load: ShardLoad {
                reads,
                writes,
                ..Default::default()
            },
            owner: NodeId(owner),
            versions: 0,
        }
    }

    fn obs(nodes: u32, shards: &[(u64, ShardStat)]) -> Observation {
        Observation {
            tick: 0,
            nodes: (0..nodes).map(NodeId).collect(),
            shards: shards
                .iter()
                .map(|&(id, s)| (ShardId(id), s))
                .collect::<BTreeMap<_, _>>(),
            affinity: Vec::new(),
            wal_rate: BTreeMap::new(),
            replicas: Vec::new(),
        }
    }

    fn task(d: &Decision) -> &MigrationTask {
        d.migration().expect("migration decision")
    }

    fn config() -> PlannerConfig {
        let mut c = PlannerConfig::balanced();
        c.cost_weight_versions = 0.0;
        c.cost_weight_wal = 0.0;
        c.colocation = false;
        c
    }

    #[test]
    fn balanced_cluster_plans_nothing() {
        let mut p = Planner::new(config());
        let o = obs(2, &[(1, shard(0, 10.0, 0.0)), (2, shard(1, 9.0, 0.0))]);
        let t = p.decide(&o);
        assert!(t.decisions.is_empty());
        assert!(t.imbalance < 1.5);
    }

    #[test]
    fn hotspot_moves_hottest_shard_to_coldest_node() {
        let mut p = Planner::new(config());
        let o = obs(
            2,
            &[
                (1, shard(0, 50.0, 0.0)),
                (2, shard(0, 40.0, 0.0)),
                (3, shard(1, 10.0, 0.0)),
            ],
        );
        let t = p.decide(&o);
        assert_eq!(t.decisions.len(), 1, "one move rebalances: {t:?}");
        let d = &t.decisions[0];
        assert_eq!(task(d).shards, vec![ShardId(1)], "hottest shard moves");
        assert_eq!(task(d).source, NodeId(0));
        assert_eq!(task(d).dest, NodeId(1));
        assert!(matches!(d.reason, MoveReason::Balance { ratio } if ratio > 1.5));
        assert_eq!(d.benefit, 50.0);
    }

    #[test]
    fn dominant_shard_does_not_ping_pong() {
        // One shard holds nearly all the load: relocating it cannot lower
        // the max, so the strict-improvement rule must refuse the move.
        let mut p = Planner::new(config());
        let o = obs(2, &[(1, shard(0, 100.0, 0.0)), (2, shard(1, 10.0, 0.0))]);
        let t = p.decide(&o);
        assert!(t.imbalance > 1.5, "trigger trips");
        assert!(t.decisions.is_empty(), "but no productive move exists");
    }

    /// A scenario whose only admissible balance move is shard 2: moving
    /// the dominant shard 1 would overshoot the destination (no strict
    /// improvement), so whether a tick plans anything hinges entirely on
    /// shard 2's cooldown state.
    fn single_movable_shard() -> (PlannerConfig, Observation) {
        let mut c = config();
        c.imbalance_ratio = 1.2;
        let o = obs(
            2,
            &[
                (1, shard(0, 30.0, 0.0)),
                (2, shard(0, 5.0, 0.0)),
                (3, shard(1, 20.0, 0.0)),
            ],
        );
        (c, o)
    }

    #[test]
    fn cooldown_blocks_remigration() {
        let (c, o) = single_movable_shard();
        let mut p = Planner::new(c);
        let first = p.decide(&o);
        assert_eq!(first.decisions.len(), 1);
        assert_eq!(task(&first.decisions[0]).shards, vec![ShardId(2)]);
        // Same (stale) observation one tick later: shard 2 is cooling
        // down and nothing else improves, so the tick is empty.
        let mut o2 = o.clone();
        o2.tick = 1;
        assert!(p.decide(&o2).decisions.is_empty());
        // Past the cooldown the shard is movable again.
        let mut o3 = o;
        o3.tick = p.config().cooldown_ticks;
        assert_eq!(p.decide(&o3).decisions.len(), 1);
    }

    #[test]
    fn note_failed_lifts_the_cooldown() {
        let (c, o) = single_movable_shard();
        let mut p = Planner::new(c);
        assert_eq!(p.decide(&o).decisions.len(), 1);
        p.note_failed(&[ShardId(2)]);
        let mut o2 = o;
        o2.tick = 1;
        let t = p.decide(&o2);
        assert_eq!(t.decisions.len(), 1, "failed move is re-planned");
        assert_eq!(task(&t.decisions[0]).shards, vec![ShardId(2)]);
    }

    #[test]
    fn caps_bound_moves_and_per_node_concurrency() {
        let mut c = config();
        c.max_moves_per_tick = 2;
        c.node_concurrency = 1;
        let mut p = Planner::new(c);
        // Four hot shards on node 0, three cold destinations.
        let o = obs(
            4,
            &[
                (1, shard(0, 40.0, 0.0)),
                (2, shard(0, 40.0, 0.0)),
                (3, shard(0, 40.0, 0.0)),
                (4, shard(0, 40.0, 0.0)),
            ],
        );
        let t = p.decide(&o);
        // Node 0 may participate in only one migration even though the
        // move cap would allow two.
        assert_eq!(t.decisions.len(), 1);
        let mut nodes_used: Vec<NodeId> = t
            .decisions
            .iter()
            .flat_map(|d| [task(d).source, task(d).dest])
            .collect();
        nodes_used.sort_unstable();
        nodes_used.dedup();
        assert_eq!(nodes_used.len(), t.decisions.len() * 2);
    }

    #[test]
    fn colocation_reunites_a_split_hot_pair() {
        let mut c = config();
        c.colocation = true;
        c.imbalance_ratio = f64::INFINITY; // isolate the co-location path
        let mut p = Planner::new(c);
        let mut o = obs(2, &[(1, shard(0, 5.0, 2.0)), (2, shard(1, 3.0, 1.0))]);
        o.affinity = vec![(ShardId(1), ShardId(2), 10)];
        let t = p.decide(&o);
        assert_eq!(t.decisions.len(), 1);
        let d = &t.decisions[0];
        assert!(
            matches!(
                d.reason,
                MoveReason::Colocate { partner, cross: 10 } if partner == ShardId(1)
            ),
            "{d:?}"
        );
        assert_eq!(task(d).shards, vec![ShardId(2)], "cheaper side moves");
        assert_eq!(task(d).dest, NodeId(0));
        assert_eq!(d.benefit, 50.0, "five hops saved per cross commit");

        // Once co-resident the pair is stable: no further move.
        let mut o2 = o;
        o2.tick = 100; // past any cooldown
        o2.shards.insert(ShardId(2), shard(0, 3.0, 1.0));
        assert!(p.decide(&o2).decisions.is_empty());
    }

    #[test]
    fn colocation_ignores_cold_pairs() {
        let mut c = config();
        c.colocation = true;
        c.imbalance_ratio = f64::INFINITY;
        let mut p = Planner::new(c);
        let mut o = obs(2, &[(1, shard(0, 5.0, 2.0)), (2, shard(1, 3.0, 1.0))]);
        o.affinity = vec![(ShardId(1), ShardId(2), 3)];
        assert!(p.decide(&o).decisions.is_empty());
    }

    #[test]
    fn cost_model_vetoes_expensive_moves() {
        let mut c = config();
        c.cost_weight_versions = 1.0;
        let mut p = Planner::new(c);
        let mut heavy = shard(0, 50.0, 0.0);
        heavy.versions = 100_000; // ~1562 load-units to copy, benefit 50
        let o = obs(
            2,
            &[
                (1, heavy),
                (2, shard(0, 40.0, 0.0)),
                (3, shard(1, 10.0, 0.0)),
            ],
        );
        let t = p.decide(&o);
        assert_eq!(t.decisions.len(), 1);
        assert_eq!(
            task(&t.decisions[0]).shards,
            vec![ShardId(2)],
            "the balancer skips the heavy shard and moves the next-hottest"
        );
    }

    /// Replication-enabled config with cost weights zeroed so tests can
    /// reason about the trigger logic in isolation.
    fn replica_config() -> PlannerConfig {
        let mut c = config();
        c.replication = true;
        c.replica_read_ratio = 0.8;
        c.cost_weight_ship = 0.0;
        c
    }

    #[test]
    fn read_mostly_hotspot_replicates_to_the_spare_node() {
        let mut p = Planner::new(replica_config());
        // Node 0 is hot and read-mostly; node 2 owns nothing.
        let o = obs(
            3,
            &[
                (1, shard(0, 50.0, 2.0)),
                (2, shard(0, 40.0, 1.0)),
                (3, shard(1, 10.0, 0.0)),
            ],
        );
        let t = p.decide(&o);
        assert_eq!(t.decisions.len(), 1, "{t:?}");
        let d = &t.decisions[0];
        assert_eq!(
            d.action,
            Action::Replicate {
                shard: ShardId(1),
                src: NodeId(0),
                dst: NodeId(2),
            }
        );
        assert!(matches!(
            d.reason,
            MoveReason::ReadOffload { read_fraction, .. } if read_fraction > 0.9
        ));
        assert_eq!(d.benefit, 90.0, "the hot node's full read demand");
        assert!(
            d.to_string()
                .starts_with("replicate ShardId(1) NodeId(0)=>NodeId(2) "),
            "{d}"
        );
    }

    #[test]
    fn write_heavy_hotspot_migrates_instead() {
        let mut p = Planner::new(replica_config());
        let o = obs(
            3,
            &[
                (1, shard(0, 10.0, 40.0)),
                (2, shard(0, 10.0, 30.0)),
                (3, shard(1, 10.0, 0.0)),
            ],
        );
        let t = p.decide(&o);
        assert!(!t.decisions.is_empty());
        assert!(
            t.decisions.iter().all(|d| d.migration().is_some()),
            "write-heavy load balances by migration: {t:?}"
        );
    }

    #[test]
    fn replication_needs_a_spare_node() {
        let mut p = Planner::new(replica_config());
        // Read-mostly hotspot but every node owns shards: migrate.
        let o = obs(
            2,
            &[
                (1, shard(0, 50.0, 0.0)),
                (2, shard(0, 40.0, 0.0)),
                (3, shard(1, 10.0, 0.0)),
            ],
        );
        let t = p.decide(&o);
        assert_eq!(t.decisions.len(), 1);
        assert!(t.decisions[0].migration().is_some());
    }

    #[test]
    fn max_replicas_caps_provisioning_and_replicas_never_become_dests() {
        let mut p = Planner::new(replica_config());
        let mut o = obs(
            3,
            &[
                (1, shard(0, 50.0, 0.0)),
                (2, shard(0, 40.0, 0.0)),
                (3, shard(1, 10.0, 0.0)),
            ],
        );
        // Node 2 already serves as the one allowed replica.
        o.replicas = vec![NodeId(2)];
        let t = p.decide(&o);
        for d in &t.decisions {
            let task = d.migration().expect("only migrations left: {d:?}");
            assert_ne!(task.dest, NodeId(2), "replica picked as dest");
        }
    }

    #[test]
    fn ship_cost_vetoes_replication_under_write_traffic() {
        let mut c = replica_config();
        c.cost_weight_ship = 100.0;
        c.replica_read_ratio = 0.5;
        let mut p = Planner::new(c);
        // Reads barely dominate; pricey shipping of the write stream makes
        // the replica a net loss, so the balancer handles it.
        let o = obs(
            3,
            &[
                (1, shard(0, 40.0, 12.0)),
                (2, shard(0, 30.0, 10.0)),
                (3, shard(1, 10.0, 0.0)),
            ],
        );
        let t = p.decide(&o);
        assert!(t.decisions.iter().all(|d| d.migration().is_some()), "{t:?}");
    }

    #[test]
    fn provisioning_respects_its_own_cooldown() {
        let mut c = replica_config();
        c.cooldown_ticks = 8;
        let mut p = Planner::new(c);
        let o = obs(3, &[(1, shard(0, 50.0, 0.0)), (3, shard(1, 10.0, 0.0))]);
        let t = p.decide(&o);
        assert!(matches!(t.decisions[0].action, Action::Replicate { .. }));
        // The replica has not landed yet (obs.replicas still empty), but
        // the provision stamp must stop a re-plan within the cooldown.
        let mut o2 = o.clone();
        o2.tick = 1;
        assert!(p.decide(&o2).decisions.is_empty(), "provision flapped");
        // A failed bootstrap lifts the stamp.
        p.note_replica_failed();
        let mut o3 = o;
        o3.tick = 2;
        assert!(matches!(
            p.decide(&o3).decisions[0].action,
            Action::Replicate { .. }
        ));
    }

    #[test]
    fn idle_replica_is_decommissioned() {
        let mut p = Planner::new(replica_config());
        // Write-only window: the replica serves nothing.
        let mut o = obs(3, &[(1, shard(0, 0.0, 5.0)), (3, shard(1, 0.0, 4.0))]);
        o.replicas = vec![NodeId(2)];
        let t = p.decide(&o);
        assert!(
            t.decisions
                .iter()
                .any(|d| d.action == Action::Decommission { replica: NodeId(2) }),
            "{t:?}"
        );
        let d = t
            .decisions
            .iter()
            .find(|d| matches!(d.action, Action::Decommission { .. }))
            .unwrap();
        assert!(
            d.to_string()
                .starts_with("decommission NodeId(2) reads=0.000"),
            "{d}"
        );

        // Offloaded reads count as demand: a busy replica is kept even
        // though the owners served nothing themselves.
        let mut busy = shard(0, 0.0, 5.0);
        busy.load.offloaded = 50.0;
        let mut o2 = obs(3, &[(1, busy), (3, shard(1, 0.0, 4.0))]);
        o2.replicas = vec![NodeId(2)];
        o2.tick = 1;
        let t2 = p.decide(&o2);
        assert!(
            !t2.decisions
                .iter()
                .any(|d| matches!(d.action, Action::Decommission { .. })),
            "{t2:?}"
        );
    }

    #[test]
    fn replicate_beats_migrate_for_a_dominant_read_shard() {
        // One dominant read-mostly shard: no balance move strictly
        // improves the spread (the ping-pong guard refuses it), but a
        // replica absorbs the reads without moving ownership.
        let mut p = Planner::new(replica_config());
        let o = obs(3, &[(1, shard(0, 100.0, 1.0)), (2, shard(1, 10.0, 0.0))]);
        let t = p.decide(&o);
        assert_eq!(t.decisions.len(), 1, "{t:?}");
        assert!(matches!(
            t.decisions[0].action,
            Action::Replicate { dst, .. } if dst == NodeId(2)
        ));
    }

    #[test]
    fn equal_seeds_replay_identical_decisions() {
        let run = |seed: u64| -> Vec<String> {
            let mut c = config();
            c.seed = seed;
            c.cooldown_ticks = 1;
            let mut p = Planner::new(c);
            let mut out = Vec::new();
            for tick in 0..8u64 {
                // Both destinations idle: every tick's dest pick is an
                // RNG tie-break.
                let mut o = obs(3, &[(1, shard(0, 50.0, 3.0)), (2, shard(0, 40.0, 2.0))]);
                o.tick = tick;
                out.extend(p.decide(&o).decisions.iter().map(|d| d.to_string()));
            }
            out
        };
        assert_eq!(run(42), run(42), "same seed, same plan");
        assert!(!run(42).is_empty());
    }
}
