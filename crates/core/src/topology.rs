//! Call-graph topologies: the typed builder behind every system shape.
//!
//! The paper's systems are linear chains (web → app → db), but the CTQO
//! mechanism — millibottleneck → queue overflow → SYN retransmission — is
//! not chain-specific. This module generalizes the system description to a
//! *tree* of tiers rooted at the client-facing node:
//!
//! * each node may be a **replica set** (N identical instances fronted by a
//!   deterministic [`Balancer`]);
//! * a node's downstream hop may be a **scatter-gather fan-out**: call all
//!   K children, reply upstream when a quorum Q ≤ K of them has answered.
//!
//! Trees (each non-root node has exactly one parent) keep reply routing
//! static and make acyclicity true by construction, which is exactly the
//! property the DES engine's slab/event machinery needs. Nodes are numbered
//! in depth-first preorder, so a chain built through [`Topology::chain`]
//! numbers its tiers front to back.
//!
//! [`TopologyBuilder`] validates at build time and returns a typed
//! [`TopologyError`] instead of panicking, per the API-redesign contract.

use crate::config::{SystemConfig, TierSpec};
use std::fmt;

/// How a replica set picks the replica for a fresh connection attempt.
///
/// All policies are deterministic: given the same seed and the same event
/// sequence they pick the same replicas. [`Balancer::P2c`] draws from a
/// dedicated rng fork per node; the others consume no randomness at all.
/// Kernel SYN retransmits bypass the balancer and re-hit the replica the
/// first attempt chose (L4 load balancers pin the 5-tuple), which is what
/// keeps the 3 s / 6 s / 9 s retransmission ladder visible per replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Balancer {
    /// Cycle through replicas in index order.
    #[default]
    RoundRobin,
    /// Pick the replica with the fewest outstanding requests (busy workers
    /// plus backlog); ties break to the lowest index.
    LeastOutstanding,
    /// Power-of-two-choices: draw two distinct replicas uniformly, keep the
    /// less-loaded one.
    P2c,
    /// Join-shortest-queue: pick the replica with the shortest accept
    /// backlog (ignoring busy workers); ties break to the lowest index.
    Jsq,
}

impl Balancer {
    /// Short label for CSV columns and experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Balancer::RoundRobin => "round-robin",
            Balancer::LeastOutstanding => "least-outstanding",
            Balancer::P2c => "p2c",
            Balancer::Jsq => "jsq",
        }
    }
}

/// The call-graph shape: who calls whom, and with what quorum.
///
/// Indices are depth-first preorder node ids; node 0 is the client-facing
/// root. The shape is stored alongside the per-node [`TierSpec`]s on
/// [`SystemConfig`], so the engine can look up a node's children and its
/// reply target without re-deriving the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyShape {
    /// `children[i]` — the nodes that node `i` calls downstream.
    pub children: Vec<Vec<usize>>,
    /// `parent[i]` — the node whose call node `i` answers (`None` for the
    /// root).
    pub parent: Vec<Option<usize>>,
    /// `quorum[i]` — replies required before node `i`'s scatter completes.
    /// Meaningful only where `children[i].len() > 1`; single-child and leaf
    /// nodes store `children[i].len()`.
    pub quorum: Vec<usize>,
}

impl TopologyShape {
    /// The shape of a linear chain of `n` tiers.
    pub fn linear(n: usize) -> Self {
        TopologyShape {
            children: (0..n)
                .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
                .collect(),
            parent: (0..n).map(|i| i.checked_sub(1)).collect(),
            quorum: (0..n).map(|i| usize::from(i + 1 < n)).collect(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True when the shape has no nodes (never true for built systems).
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// True when every node has at most one child — the chain special case
    /// the pre-topology engine handled.
    pub fn is_linear(&self) -> bool {
        self.children.iter().all(|c| c.len() <= 1)
    }

    /// True when node `i` scatters to several children.
    pub fn is_fanout(&self, i: usize) -> bool {
        self.children[i].len() > 1
    }

    /// True when any node scatters.
    pub fn has_fanout(&self) -> bool {
        (0..self.len()).any(|i| self.is_fanout(i))
    }
}

/// Why a topology failed to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// No tiers at all.
    Empty,
    /// More than 255 nodes — past the [`ntier_des::TierId`] range.
    TooManyTiers { count: usize },
    /// A tier asked for zero replicas.
    ZeroReplicas { tier: String },
    /// A tier asked for more than 255 replicas — past the
    /// [`ntier_des::ReplicaId`] range.
    TooManyReplicas { tier: String, count: usize },
    /// A scatter with quorum 0 can never be waited on meaningfully.
    QuorumZero { tier: String },
    /// Quorum larger than the number of children can never be met.
    QuorumExceedsFanout {
        tier: String,
        quorum: usize,
        fanout: usize,
    },
    /// A downstream connection pool needs exactly one downstream to pool
    /// connections to.
    PoolRequiresSingleChild { tier: String },
    /// Cancellation chases walk a linear chain; combining a cancel policy
    /// with scatter-gather is not supported.
    CancelWithFanout { tier: String },
    /// `tier()` was called after `fanout()` closed the spine.
    TierAfterFanout { tier: String },
    /// `fanout()` was called twice on the spine.
    DoubleFanout,
    /// `fanout()` with no branches.
    EmptyFanout { tier: String },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "a system needs at least one tier"),
            TopologyError::TooManyTiers { count } => {
                write!(f, "{count} tiers exceeds the 255-tier limit")
            }
            TopologyError::ZeroReplicas { tier } => {
                write!(f, "tier {tier} needs at least one replica")
            }
            TopologyError::TooManyReplicas { tier, count } => {
                write!(
                    f,
                    "tier {tier}: {count} replicas exceeds the 255-replica limit"
                )
            }
            TopologyError::QuorumZero { tier } => {
                write!(f, "tier {tier}: scatter quorum must be at least 1")
            }
            TopologyError::QuorumExceedsFanout {
                tier,
                quorum,
                fanout,
            } => write!(
                f,
                "tier {tier}: quorum {quorum} exceeds its fan-out of {fanout}"
            ),
            TopologyError::PoolRequiresSingleChild { tier } => write!(
                f,
                "tier {tier}: a downstream connection pool requires exactly one downstream"
            ),
            TopologyError::CancelWithFanout { tier } => write!(
                f,
                "tier {tier}: cancellation propagation is not supported with scatter-gather fan-out"
            ),
            TopologyError::TierAfterFanout { tier } => write!(
                f,
                "tier {tier}: cannot extend the spine after a fan-out; grow the branches instead"
            ),
            TopologyError::DoubleFanout => {
                write!(f, "the spine already ends in a fan-out")
            }
            TopologyError::EmptyFanout { tier } => {
                write!(f, "tier {tier}: a fan-out needs at least one branch")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// One subtree of a scatter-gather fan-out.
///
/// A branch starts at a tier and grows downward: [`Branch::then`] appends a
/// single downstream hop, [`Branch::fanout`] scatters again. Structural
/// misuse (growing past a fan-out) is recorded and surfaced as a typed
/// error from [`TopologyBuilder::build`], keeping every method infallible
/// at the call site.
#[derive(Debug, Clone)]
pub struct Branch {
    spec: TierSpec,
    children: Vec<Branch>,
    quorum: usize,
    err: Option<TopologyError>,
}

impl Branch {
    /// A branch consisting of a single tier.
    pub fn tier(spec: TierSpec) -> Branch {
        Branch {
            spec,
            children: Vec::new(),
            quorum: 0,
            err: None,
        }
    }

    /// Appends `spec` below the branch's current tail.
    pub fn then(mut self, spec: TierSpec) -> Branch {
        let name = spec.name.clone();
        match self.tail() {
            Some(tail) => tail.children.push(Branch::tier(spec)),
            None => self.note(TopologyError::TierAfterFanout { tier: name }),
        }
        self
    }

    /// Scatters from the branch's current tail to `branches`, gathering
    /// `quorum` replies.
    pub fn fanout(mut self, quorum: usize, branches: Vec<Branch>) -> Branch {
        match self.tail() {
            Some(tail) => {
                tail.quorum = quorum;
                tail.children = branches;
            }
            None => self.note(TopologyError::DoubleFanout),
        }
        self
    }

    /// The deepest node of the linear tail, or `None` if the branch already
    /// ends in a fan-out.
    fn tail(&mut self) -> Option<&mut Branch> {
        let mut cur = self;
        loop {
            match cur.children.len() {
                0 => return Some(cur),
                1 => cur = &mut cur.children[0],
                _ => return None,
            }
        }
    }

    fn note(&mut self, err: TopologyError) {
        if self.err.is_none() {
            self.err = Some(err);
        }
    }

    fn first_err(&self) -> Option<TopologyError> {
        if let Some(e) = &self.err {
            return Some(e.clone());
        }
        self.children.iter().find_map(Branch::first_err)
    }

    /// Preorder-flattens the subtree into `tiers`/`shape`, returning this
    /// node's id.
    fn flatten(&self, tiers: &mut Vec<TierSpec>, shape: &mut TopologyShape) -> usize {
        let id = tiers.len();
        tiers.push(self.spec.clone());
        shape.children.push(Vec::new());
        shape.parent.push(None);
        shape.quorum.push(if self.children.len() > 1 {
            self.quorum
        } else {
            self.children.len()
        });
        for child in &self.children {
            let cid = child.flatten(tiers, shape);
            shape.children[id].push(cid);
            shape.parent[cid] = Some(id);
        }
        id
    }
}

/// Entry points for describing a system: the fluent builder plus the two
/// chain constructors every pre-topology call site used.
pub struct Topology;

impl Topology {
    /// Starts a fluent topology description at the client-facing root.
    ///
    /// ```
    /// use ntier_core::{Balancer, Branch, TierSpec, Topology};
    ///
    /// let sys = Topology::client()
    ///     .tier(TierSpec::sync("apache", 150, 128).replicas(3).balancer(Balancer::P2c))
    ///     .tier(TierSpec::sync("tomcat", 50, 128))
    ///     .fanout(
    ///         1,
    ///         vec![
    ///             Branch::tier(TierSpec::sync("mysql-a", 100, 128)),
    ///             Branch::tier(TierSpec::sync("mysql-b", 100, 128)),
    ///         ],
    ///     )
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(sys.tiers.len(), 4);
    /// assert!(sys.shape.is_fanout(1));
    /// ```
    pub fn client() -> TopologyBuilder {
        TopologyBuilder {
            spine: Vec::new(),
            fan: None,
            err: None,
        }
    }

    /// Builds a linear chain of arbitrary depth (tier 0 is client-facing).
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty.
    pub fn chain(tiers: Vec<TierSpec>) -> SystemConfig {
        let mut b = Topology::client();
        for t in tiers {
            b = b.tier(t);
        }
        match b.build() {
            Ok(sys) => sys,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the paper's 3-tier system (web, app, db).
    pub fn three_tier(web: TierSpec, app: TierSpec, db: TierSpec) -> SystemConfig {
        Topology::chain(vec![web, app, db])
    }
}

/// The fluent builder [`Topology::client`] returns: a linear spine of tiers
/// optionally ending in one scatter-gather fan-out whose branches are
/// themselves trees.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    spine: Vec<TierSpec>,
    fan: Option<(usize, Vec<Branch>)>,
    err: Option<TopologyError>,
}

impl TopologyBuilder {
    /// Appends the next tier of the spine (a single-child hop).
    pub fn tier(mut self, spec: TierSpec) -> Self {
        if self.fan.is_some() {
            self.note(TopologyError::TierAfterFanout {
                tier: spec.name.clone(),
            });
            return self;
        }
        self.spine.push(spec);
        self
    }

    /// Ends the spine with a scatter-gather: the last spine tier calls every
    /// branch and replies upstream once `quorum` branches have answered.
    pub fn fanout(mut self, quorum: usize, branches: Vec<Branch>) -> Self {
        if self.fan.is_some() {
            self.note(TopologyError::DoubleFanout);
            return self;
        }
        self.fan = Some((quorum, branches));
        self
    }

    fn note(&mut self, err: TopologyError) {
        if self.err.is_none() {
            self.err = Some(err);
        }
    }

    /// Validates the description and produces a [`SystemConfig`].
    pub fn build(self) -> Result<SystemConfig, TopologyError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        if self.spine.is_empty() {
            return Err(TopologyError::Empty);
        }
        if let Some((_, branches)) = &self.fan {
            if branches.is_empty() {
                return Err(TopologyError::EmptyFanout {
                    tier: self.spine.last().expect("non-empty").name.clone(),
                });
            }
            if let Some(e) = branches.iter().find_map(Branch::first_err) {
                return Err(e);
            }
        }
        // Flatten spine + fan into preorder ids.
        let mut tiers = Vec::new();
        let mut shape = TopologyShape {
            children: Vec::new(),
            parent: Vec::new(),
            quorum: Vec::new(),
        };
        for (i, spec) in self.spine.iter().enumerate() {
            tiers.push(spec.clone());
            shape.children.push(Vec::new());
            shape.parent.push(i.checked_sub(1));
            shape.quorum.push(0); // fixed up below
            if i > 0 {
                shape.children[i - 1].push(i);
                shape.quorum[i - 1] = 1;
            }
        }
        if let Some((quorum, branches)) = &self.fan {
            let fan_node = tiers.len() - 1;
            for branch in branches {
                let cid = branch.flatten(&mut tiers, &mut shape);
                shape.children[fan_node].push(cid);
                shape.parent[cid] = Some(fan_node);
            }
            shape.quorum[fan_node] = if shape.children[fan_node].len() > 1 {
                *quorum
            } else {
                shape.children[fan_node].len()
            };
        }
        validate(&tiers, &shape)?;
        Ok(SystemConfig::from_parts(tiers, shape))
    }
}

/// Structural validation shared by every construction path.
fn validate(tiers: &[TierSpec], shape: &TopologyShape) -> Result<(), TopologyError> {
    if tiers.is_empty() {
        return Err(TopologyError::Empty);
    }
    if tiers.len() > 255 {
        return Err(TopologyError::TooManyTiers { count: tiers.len() });
    }
    let has_fanout = shape.has_fanout();
    for (i, spec) in tiers.iter().enumerate() {
        let tier = || spec.name.clone();
        if spec.replicas == 0 {
            return Err(TopologyError::ZeroReplicas { tier: tier() });
        }
        if spec.replicas > 255 {
            return Err(TopologyError::TooManyReplicas {
                tier: tier(),
                count: spec.replicas,
            });
        }
        let kids = shape.children[i].len();
        if kids > 1 {
            let q = shape.quorum[i];
            if q == 0 {
                return Err(TopologyError::QuorumZero { tier: tier() });
            }
            if q > kids {
                return Err(TopologyError::QuorumExceedsFanout {
                    tier: tier(),
                    quorum: q,
                    fanout: kids,
                });
            }
        }
        if spec.downstream_pool.is_some() && kids != 1 {
            return Err(TopologyError::PoolRequiresSingleChild { tier: tier() });
        }
        if has_fanout
            && spec
                .caller_policy
                .as_ref()
                .is_some_and(|p| p.cancel.is_some())
        {
            return Err(TopologyError::CancelWithFanout { tier: tier() });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{CallerPolicy, CancelPolicy};
    use ntier_des::time::SimDuration;

    fn t(name: &str) -> TierSpec {
        TierSpec::sync(name, 10, 10)
    }

    #[test]
    fn linear_shape_matches_chain_indices() {
        let sys = Topology::chain(vec![t("web"), t("app"), t("db")]);
        assert_eq!(sys.shape, TopologyShape::linear(3));
        assert_eq!(sys.shape.children, vec![vec![1], vec![2], vec![]]);
        assert_eq!(sys.shape.parent, vec![None, Some(0), Some(1)]);
        assert!(sys.shape.is_linear());
        assert!(!sys.shape.has_fanout());
    }

    #[test]
    fn builder_validates_empty() {
        assert_eq!(
            Topology::client().build().unwrap_err(),
            TopologyError::Empty
        );
    }

    #[test]
    fn fanout_preorder_numbering_and_quorum() {
        let sys = Topology::client()
            .tier(t("web"))
            .fanout(
                2,
                vec![
                    Branch::tier(t("shard-a")).then(t("store-a")),
                    Branch::tier(t("shard-b")),
                    Branch::tier(t("shard-c")),
                ],
            )
            .build()
            .unwrap();
        let names: Vec<&str> = sys.tiers.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["web", "shard-a", "store-a", "shard-b", "shard-c"]
        );
        assert_eq!(sys.shape.children[0], vec![1, 3, 4]);
        assert_eq!(sys.shape.children[1], vec![2]);
        assert_eq!(sys.shape.quorum[0], 2);
        assert_eq!(sys.shape.parent[3], Some(0));
        assert!(sys.shape.has_fanout());
        assert!(!sys.shape.is_linear());
    }

    #[test]
    fn quorum_must_fit_the_fanout() {
        let err = Topology::client()
            .tier(t("web"))
            .fanout(3, vec![Branch::tier(t("a")), Branch::tier(t("b"))])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            TopologyError::QuorumExceedsFanout {
                tier: "web".into(),
                quorum: 3,
                fanout: 2
            }
        );
        let err = Topology::client()
            .tier(t("web"))
            .fanout(0, vec![Branch::tier(t("a")), Branch::tier(t("b"))])
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::QuorumZero { tier: "web".into() });
    }

    #[test]
    fn replica_counts_validated() {
        let err = Topology::client()
            .tier(t("web").replicas(0))
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::ZeroReplicas { tier: "web".into() });
        let err = Topology::client()
            .tier(t("web").replicas(300))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            TopologyError::TooManyReplicas { count: 300, .. }
        ));
    }

    #[test]
    fn pool_requires_single_child() {
        let err = Topology::client()
            .tier(t("web").with_downstream_pool(50))
            .fanout(1, vec![Branch::tier(t("a")), Branch::tier(t("b"))])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            TopologyError::PoolRequiresSingleChild { tier: "web".into() }
        );
        // On a leaf, a pool is equally meaningless.
        let err = Topology::client()
            .tier(t("web").with_downstream_pool(50))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            TopologyError::PoolRequiresSingleChild { tier: "web".into() }
        );
    }

    #[test]
    fn cancel_policies_rejected_with_fanout() {
        let policy = CallerPolicy::timeout_only(SimDuration::from_secs(1))
            .with_cancel(CancelPolicy::new(SimDuration::from_micros(50)));
        let err = Topology::client()
            .tier(t("web").with_caller_policy(policy))
            .fanout(1, vec![Branch::tier(t("a")), Branch::tier(t("b"))])
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::CancelWithFanout { tier: "web".into() });
    }

    #[test]
    fn spine_cannot_grow_past_a_fanout() {
        let err = Topology::client()
            .tier(t("web"))
            .fanout(1, vec![Branch::tier(t("a")), Branch::tier(t("b"))])
            .tier(t("late"))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            TopologyError::TierAfterFanout {
                tier: "late".into()
            }
        );
    }

    #[test]
    fn branch_misuse_is_surfaced_at_build() {
        let bad = Branch::tier(t("a"))
            .fanout(1, vec![Branch::tier(t("b")), Branch::tier(t("c"))])
            .then(t("late"));
        let err = Topology::client()
            .tier(t("web"))
            .fanout(1, vec![bad, Branch::tier(t("d"))])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            TopologyError::TierAfterFanout {
                tier: "late".into()
            }
        );
    }

    #[test]
    fn nested_branch_fanouts_flatten() {
        let sys = Topology::client()
            .tier(t("gw"))
            .fanout(
                2,
                vec![
                    Branch::tier(t("svc-a"))
                        .fanout(1, vec![Branch::tier(t("db-a1")), Branch::tier(t("db-a2"))]),
                    Branch::tier(t("svc-b")),
                ],
            )
            .build()
            .unwrap();
        assert_eq!(sys.tiers.len(), 5);
        assert_eq!(sys.shape.children[1], vec![2, 3]);
        assert_eq!(sys.shape.quorum[1], 1);
        assert_eq!(sys.shape.parent[4], Some(0));
    }

    #[test]
    #[should_panic(expected = "a system needs at least one tier")]
    fn chain_keeps_legacy_panic() {
        let _ = Topology::chain(vec![]);
    }
}
