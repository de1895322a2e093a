//! The labelled transition system (LTS) of a schema with access restrictions.
//!
//! With any schema and initial instance the paper associates an LTS whose
//! nodes are instances (the information revealed so far), whose labels are
//! accesses, and whose transitions add a well-formed response to the accessed
//! relation.  Figure 1 shows a fragment of this (infinite) tree for the
//! phone-directory schema; [`LtsExplorer`] materialises a bounded fragment of
//! it, which is what the `fig1_lts_tree` benchmark and the `lts_explorer`
//! example regenerate.
//!
//! # Overlay-backed exploration
//!
//! Configurations only ever *grow* along an access path, so each node of the
//! tree is stored as an [`InstanceOverlay`]: an [`Arc`]-shared base (the
//! initial instance) plus the facts revealed on the path to the node.
//! Creating a child then costs `O(|response| + |delta|)` instead of
//! `O(|Conf|)`, and — since every revealed fact comes out of the hidden
//! instance — the binding domain per access method can be computed **once**
//! per exploration rather than once per node.  The pre-overlay path, which
//! materialises a full `Instance` per node and recomputes domains from it,
//! is kept behind [`LtsOptions::use_overlays`] /
//! [`DISABLE_LTS_OVERLAY_ENV_VAR`] and produces a byte-identical tree
//! (nodes, labels, iteration and `Display` order) — property-tested in
//! `tests/lts_overlay_props.rs` and CI-enforced by diffing the
//! `lts_explorer` example both ways.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use accltl_obs::{metrics, trace};
use accltl_relational::{DataType, Instance, InstanceOverlay, Tuple, Value};

use crate::access::{Access, AccessSchema};
use crate::path::Response;
use crate::Result;

/// Environment variable disabling overlay-backed LTS exploration when set to
/// `1`: [`LtsOptions::from_env`] (and therefore `LtsOptions::default()`)
/// falls back to materialising a full instance per node, which produces a
/// byte-identical tree (CI diffs the `lts_explorer` example both ways).
///
/// The variable is *read* in exactly one place, [`LtsOptions::from_env`];
/// this module only defines the name.
pub const DISABLE_LTS_OVERLAY_ENV_VAR: &str = "ACCLTL_DISABLE_LTS_OVERLAY";

/// How responses are enumerated when expanding a node of the LTS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponsePolicy {
    /// Only the exact response from the hidden instance (the access returns
    /// precisely the matching tuples).  This models exact access methods.
    ExactFromHidden,
    /// Every subset of the matching tuples of the hidden instance with at most
    /// the given number of tuples.  This models sound-but-incomplete sources
    /// and produces the branching of Figure 1.
    SubsetsOfHidden {
        /// Maximum number of tuples in a response.
        max_response_size: usize,
    },
}

/// Options bounding the LTS exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LtsOptions {
    /// Maximum path depth (number of accesses from the root).
    pub max_depth: usize,
    /// Only expand accesses whose binding values are already known (grounded
    /// accesses).
    pub grounded_only: bool,
    /// How responses are enumerated.
    pub response_policy: ResponsePolicy,
    /// Cap on the number of bindings enumerated per access method per node.
    pub max_bindings_per_method: usize,
    /// Cap on the total number of nodes in the materialised tree.
    pub max_nodes: usize,
    /// Whether nodes are built as copy-on-write overlays over the shared
    /// initial instance (the default), or materialised as full instances.
    /// The tree is byte-identical either way; this is purely a performance
    /// switch.
    pub use_overlays: bool,
}

impl LtsOptions {
    /// The environment-independent baseline options.
    #[must_use]
    pub fn base() -> Self {
        LtsOptions {
            max_depth: 3,
            grounded_only: false,
            response_policy: ResponsePolicy::ExactFromHidden,
            max_bindings_per_method: 32,
            max_nodes: 10_000,
            use_overlays: true,
        }
    }

    /// The baseline with [`DISABLE_LTS_OVERLAY_ENV_VAR`] applied — the single
    /// place that variable is read.
    #[must_use]
    #[allow(clippy::disallowed_methods)] // a documented `ACCLTL_*` read site
    pub fn from_env() -> Self {
        let disabled = std::env::var(DISABLE_LTS_OVERLAY_ENV_VAR)
            .map(|v| v == "1")
            .unwrap_or(false);
        LtsOptions {
            use_overlays: !disabled,
            ..LtsOptions::base()
        }
    }
}

impl Default for LtsOptions {
    fn default() -> Self {
        LtsOptions::from_env()
    }
}

/// A node of the materialised LTS tree.
///
/// The node's configuration (the information revealed so far) is held as an
/// [`InstanceOverlay`] — under the default overlay-backed exploration all
/// nodes share the initial instance as their base and own only their path's
/// delta.  Equality is configuration equality (same facts, depth and edges),
/// independent of how the facts are split between base and delta.
#[derive(Debug, Clone)]
pub struct LtsNode {
    /// The configuration (revealed information) at this node.
    conf: InstanceOverlay,
    /// Distance from the root in accesses.
    pub depth: usize,
    /// Outgoing edges: the access, its response, and the index of the child
    /// node in [`LtsTree::nodes`].
    pub edges: Vec<(Access, Response, usize)>,
}

impl LtsNode {
    /// The configuration at this node, as a copy-on-write overlay.
    #[must_use]
    pub fn configuration(&self) -> &InstanceOverlay {
        &self.conf
    }

    /// The configuration materialised into a standalone [`Instance`].
    #[must_use]
    pub fn instance(&self) -> Instance {
        self.conf.materialize()
    }

    /// The number of facts known at this node.
    #[must_use]
    pub fn fact_count(&self) -> usize {
        self.conf.fact_count()
    }
}

impl PartialEq for LtsNode {
    fn eq(&self, other: &Self) -> bool {
        self.depth == other.depth
            && self.edges == other.edges
            && self.conf.fact_count() == other.conf.fact_count()
            && self.conf.facts().eq(other.conf.facts())
    }
}

impl Eq for LtsNode {}

/// A bounded fragment of the LTS, materialised as a tree rooted at the initial
/// instance (Figure 1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LtsTree {
    /// The nodes, in creation (BFS) order; index 0 is the root.
    pub nodes: Vec<LtsNode>,
    /// True if a bound (depth, node or binding cap) truncated the exploration.
    pub truncated: bool,
}

impl LtsTree {
    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (transitions).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.edges.len()).sum()
    }

    /// Number of nodes at each depth, from the root downwards.
    #[must_use]
    pub fn nodes_per_depth(&self) -> Vec<usize> {
        let max_depth = self.nodes.iter().map(|n| n.depth).max().unwrap_or(0);
        let mut counts = vec![0usize; max_depth + 1];
        for node in &self.nodes {
            counts[node.depth] += 1;
        }
        counts
    }

    /// Renders the tree fragment as indented text (the textual analogue of
    /// Figure 1), limited to the given number of lines.
    #[must_use]
    pub fn render(&self, max_lines: usize) -> String {
        let mut out = String::new();
        let mut lines = 0usize;
        self.render_node(0, 0, &mut out, &mut lines, max_lines);
        if lines >= max_lines {
            out.push_str("  …\n");
        }
        out
    }

    fn render_node(
        &self,
        index: usize,
        indent: usize,
        out: &mut String,
        lines: &mut usize,
        max_lines: usize,
    ) {
        if *lines >= max_lines {
            return;
        }
        let node = &self.nodes[index];
        out.push_str(&"  ".repeat(indent));
        out.push_str(&format!(
            "[depth {}] known facts: {}\n",
            node.depth,
            node.fact_count()
        ));
        *lines += 1;
        for (access, response, child) in &node.edges {
            if *lines >= max_lines {
                return;
            }
            out.push_str(&"  ".repeat(indent + 1));
            out.push_str(&format!("--{access} / {} tuple(s)-->\n", response.len()));
            *lines += 1;
            self.render_node(*child, indent + 2, out, lines, max_lines);
        }
    }
}

impl fmt::Display for LtsTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(200))
    }
}

/// Sorted candidate values per column type, used to enumerate bindings.
type DomainByType = BTreeMap<DataType, Vec<Value>>;

fn domain_by_type(domain: &BTreeSet<Value>) -> DomainByType {
    let mut by_type: DomainByType = BTreeMap::new();
    for value in domain {
        by_type.entry(value.data_type()).or_default().push(*value);
    }
    by_type
}

/// Merges two sorted, deduplicated value lists into one (deduplicating).
fn merge_sorted(a: &[Value], b: &[Value]) -> Vec<Value> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Bounded explorer of the LTS of a schema with access restrictions.
///
/// The LTS itself is infinite (every access has infinitely many well-formed
/// responses); the explorer bounds it by drawing responses from a *hidden
/// instance* (the actual content of the data source) and bindings from a
/// finite value domain, exactly the way Figure 1 is drawn in the paper.
///
/// Under the default overlay-backed mode ([`LtsOptions::use_overlays`])
/// every node shares the initial instance behind an [`Arc`] and owns only
/// its path's revealed facts, and the binding domains are hoisted out of the
/// per-node loop (every response tuple comes from the hidden instance, so
/// the non-grounded domain `adom(Conf) ∪ adom(hidden)` is constant across
/// the tree).  The materialising mode recomputes both per node; the trees
/// are identical.
#[derive(Debug, Clone)]
pub struct LtsExplorer<'a> {
    schema: &'a AccessSchema,
    hidden: &'a Instance,
    options: LtsOptions,
}

impl<'a> LtsExplorer<'a> {
    /// Creates an explorer for the schema with the given hidden instance.
    #[must_use]
    pub fn new(schema: &'a AccessSchema, hidden: &'a Instance, options: LtsOptions) -> Self {
        LtsExplorer {
            schema,
            hidden,
            options,
        }
    }

    /// Explores the LTS from the given initial instance, producing a bounded
    /// tree fragment.
    pub fn explore(&self, initial: &Instance) -> Result<LtsTree> {
        let _explore_span = trace::span_fields(
            "lts.explore",
            &[("overlays", u64::from(self.options.use_overlays))],
        );
        // Hoisted binding domain (overlay mode): every response tuple is
        // drawn from the hidden instance, so values revealed along any path
        // are a subset of `adom(initial) ∪ adom(hidden)`.  Non-grounded
        // exploration therefore sees one constant domain; grounded
        // exploration merges each node's (small) delta domain on top of the
        // initial instance's.
        let static_domain = if self.options.use_overlays {
            let mut domain = initial.active_domain();
            if !self.options.grounded_only {
                domain.extend(self.hidden.active_domain());
            }
            Some(domain_by_type(&domain))
        } else {
            None
        };

        let mut nodes = vec![LtsNode {
            conf: InstanceOverlay::new(Arc::new(initial.clone())),
            depth: 0,
            edges: Vec::new(),
        }];
        let mut truncated = false;
        let mut frontier = vec![0usize];

        while let Some(index) = frontier.pop() {
            let (depth, conf) = {
                let node = &nodes[index];
                (node.depth, node.conf.clone())
            };
            if depth >= self.options.max_depth {
                continue;
            }
            // Grounded overlay exploration: the node's domain beyond the
            // initial instance is exactly its delta's.
            let delta_domain = match &static_domain {
                Some(_) if self.options.grounded_only => {
                    Some(domain_by_type(&conf.delta().active_domain()))
                }
                _ => None,
            };
            let mut edges = Vec::new();
            for method in self.schema.methods() {
                let bindings = match &static_domain {
                    Some(by_type) => {
                        self.candidate_bindings_hoisted(method, by_type, delta_domain.as_ref())?
                    }
                    None => self.candidate_bindings_scanned(method, &conf)?,
                };
                if bindings.len() >= self.options.max_bindings_per_method {
                    truncated = true;
                }
                for binding in bindings {
                    let access = Access::new(method.name_sym(), binding);
                    for response in self.candidate_responses(&access) {
                        if nodes.len() + edges.len() >= self.options.max_nodes {
                            truncated = true;
                            break;
                        }
                        let successor = if self.options.use_overlays {
                            let mut successor = conf.clone();
                            for tuple in &response {
                                successor.push_fact(method.relation_id(), tuple.clone());
                            }
                            successor
                        } else {
                            let mut instance = conf.materialize();
                            for tuple in &response {
                                instance.add_fact(method.relation_id(), tuple.clone());
                            }
                            InstanceOverlay::from(instance)
                        };
                        edges.push((access.clone(), response, successor));
                    }
                }
            }
            for (access, response, successor) in edges {
                let child_index = nodes.len();
                nodes.push(LtsNode {
                    conf: successor,
                    depth: depth + 1,
                    edges: Vec::new(),
                });
                nodes[index].edges.push((access, response, child_index));
                frontier.push(child_index);
            }
            if nodes.len() >= self.options.max_nodes {
                truncated = true;
                break;
            }
        }

        let tree = LtsTree { nodes, truncated };
        metrics::add("lts.explorations", 1);
        metrics::add("lts.nodes", tree.nodes.len() as u64);
        metrics::add("lts.edges", tree.edge_count() as u64);
        if trace::tracing() {
            // One record per BFS layer: the exploration's depth profile.
            for (depth, count) in tree.nodes_per_depth().iter().enumerate() {
                trace::event(
                    "lts.layer",
                    &[("depth", depth as u64), ("nodes", *count as u64)],
                );
            }
            trace::event(
                "lts.report",
                &[
                    ("nodes", tree.nodes.len() as u64),
                    ("edges", tree.edge_count() as u64),
                    ("truncated", u64::from(tree.truncated)),
                ],
            );
        }
        Ok(tree)
    }

    /// Binding enumeration against the hoisted domain (overlay mode): the
    /// per-type value lists were computed once for the whole exploration;
    /// grounded exploration merges the node's delta domain on top.
    fn candidate_bindings_hoisted(
        &self,
        method: &crate::access::AccessMethod,
        by_type: &DomainByType,
        delta: Option<&DomainByType>,
    ) -> Result<Vec<Tuple>> {
        static EMPTY: Vec<Value> = Vec::new();
        let relation = self
            .schema
            .schema()
            .require_relation_id(method.relation_id())?;
        let per_position: Vec<Vec<Value>> = method
            .input_positions()
            .iter()
            .map(|&p| {
                let ty = relation.column_types()[p];
                let base = by_type.get(&ty).unwrap_or(&EMPTY);
                match delta.and_then(|d| d.get(&ty)) {
                    Some(extra) => merge_sorted(base, extra),
                    None => base.clone(),
                }
            })
            .collect();
        Ok(self.capped_binding_product(&per_position))
    }

    /// Binding enumeration recomputed from the node's configuration
    /// (materialising mode): values are drawn from the active domain of the
    /// configuration plus (unless `grounded_only`) the active domain of the
    /// hidden instance.
    fn candidate_bindings_scanned(
        &self,
        method: &crate::access::AccessMethod,
        current: &InstanceOverlay,
    ) -> Result<Vec<Tuple>> {
        let relation = self
            .schema
            .schema()
            .require_relation_id(method.relation_id())?;
        let mut domain: BTreeSet<Value> = current.active_domain();
        if !self.options.grounded_only {
            domain.extend(self.hidden.active_domain());
        }
        let per_position: Vec<Vec<Value>> = method
            .input_positions()
            .iter()
            .map(|&p| {
                let ty = relation.column_types()[p];
                domain
                    .iter()
                    .filter(|v| v.data_type() == ty)
                    .copied()
                    .collect()
            })
            .collect();
        Ok(self.capped_binding_product(&per_position))
    }

    /// Cartesian product of the per-position candidate lists, capped at
    /// `max_bindings_per_method` (with the historical over-enumeration
    /// buffer of 4× during construction, preserved so both binding
    /// enumeration paths truncate identically).
    fn capped_binding_product(&self, per_position: &[Vec<Value>]) -> Vec<Tuple> {
        let mut bindings: Vec<Vec<Value>> = vec![Vec::new()];
        for values in per_position {
            let mut next = Vec::new();
            for prefix in &bindings {
                for v in values {
                    if next.len() + bindings.len() > self.options.max_bindings_per_method * 4 {
                        break;
                    }
                    let mut extended = prefix.clone();
                    extended.push(*v);
                    next.push(extended);
                }
            }
            bindings = next;
        }
        bindings.truncate(self.options.max_bindings_per_method);
        bindings.into_iter().map(Tuple::new).collect()
    }

    /// Enumerates candidate responses for an access according to the response
    /// policy.
    fn candidate_responses(&self, access: &Access) -> Vec<Response> {
        let matching: Vec<Tuple> = self
            .schema
            .exact_response(access, self.hidden)
            .into_iter()
            .collect();
        match self.options.response_policy {
            ResponsePolicy::ExactFromHidden => {
                vec![matching.into_iter().collect()]
            }
            ResponsePolicy::SubsetsOfHidden { max_response_size } => {
                // Enumerate all subsets of the matching tuples up to the size
                // cap (including the empty response).
                let n = matching.len().min(16);
                let mut responses = Vec::new();
                for mask in 0u32..(1 << n) {
                    if (mask.count_ones() as usize) > max_response_size {
                        continue;
                    }
                    let subset: Response = (0..n)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| matching[i].clone())
                        .collect();
                    responses.push(subset);
                }
                responses
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::phone_directory_access_schema;
    use accltl_relational::tuple;

    fn hidden() -> Instance {
        let mut inst = Instance::new();
        inst.add_fact("Mobile#", tuple!["Smith", "OX13QD", "Parks Rd", 5551212]);
        inst.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Smith", 13]);
        inst.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Jones", 16]);
        inst
    }

    #[test]
    fn exact_exploration_reveals_the_hidden_instance() {
        let schema = phone_directory_access_schema();
        let hidden = hidden();
        let explorer = LtsExplorer::new(
            &schema,
            &hidden,
            LtsOptions {
                max_depth: 2,
                max_bindings_per_method: 64,
                ..LtsOptions::base()
            },
        );
        let tree = explorer.explore(&Instance::new()).unwrap();
        assert!(tree.node_count() > 1);
        assert_eq!(tree.node_count(), tree.edge_count() + 1);
        // Some depth-2 node knows all three hidden facts (access Smith's
        // mobile entry, then the Parks Rd / OX13QD address form).
        assert!(tree
            .nodes
            .iter()
            .any(|n| n.depth == 2 && n.fact_count() == 3));
    }

    #[test]
    fn grounded_exploration_starts_empty_handed() {
        let schema = phone_directory_access_schema();
        let hidden = hidden();
        let explorer = LtsExplorer::new(
            &schema,
            &hidden,
            LtsOptions {
                grounded_only: true,
                max_depth: 2,
                ..LtsOptions::base()
            },
        );
        // With an empty initial instance there are no known values, so no
        // grounded access can be made at all: the tree is just the root.
        let tree = explorer.explore(&Instance::new()).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.edge_count(), 0);

        // Seeding the initial instance with an Address fact provides values to
        // enter into the forms, so the tree grows.
        let mut initial = Instance::new();
        initial.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Smith", 13]);
        let tree = explorer.explore(&initial).unwrap();
        assert!(tree.node_count() > 1);
    }

    #[test]
    fn subset_responses_branch_like_figure1() {
        let schema = phone_directory_access_schema();
        let hidden = hidden();
        let explorer = LtsExplorer::new(
            &schema,
            &hidden,
            LtsOptions {
                max_depth: 1,
                response_policy: ResponsePolicy::SubsetsOfHidden {
                    max_response_size: 2,
                },
                max_bindings_per_method: 8,
                ..LtsOptions::base()
            },
        );
        let tree = explorer.explore(&Instance::new()).unwrap();
        // For the access AcM2("Parks Rd","OX13QD") there are two matching
        // address tuples, so subsets {}, {t1}, {t2}, {t1,t2} all appear: the
        // tree branches more than under the exact policy.
        let exact_tree = LtsExplorer::new(
            &schema,
            &hidden,
            LtsOptions {
                max_depth: 1,
                max_bindings_per_method: 8,
                ..LtsOptions::base()
            },
        )
        .explore(&Instance::new())
        .unwrap();
        assert!(tree.edge_count() > exact_tree.edge_count());
    }

    #[test]
    fn node_budget_truncates_exploration() {
        let schema = phone_directory_access_schema();
        let hidden = hidden();
        let explorer = LtsExplorer::new(
            &schema,
            &hidden,
            LtsOptions {
                max_depth: 4,
                max_nodes: 10,
                max_bindings_per_method: 64,
                ..LtsOptions::base()
            },
        );
        let tree = explorer.explore(&Instance::new()).unwrap();
        assert!(tree.truncated);
        assert!(tree.node_count() <= 11);
    }

    #[test]
    fn nodes_per_depth_and_render() {
        let schema = phone_directory_access_schema();
        let hidden = hidden();
        let explorer = LtsExplorer::new(&schema, &hidden, LtsOptions::base());
        let tree = explorer.explore(&Instance::new()).unwrap();
        let per_depth = tree.nodes_per_depth();
        assert_eq!(per_depth[0], 1);
        assert_eq!(per_depth.iter().sum::<usize>(), tree.node_count());
        let rendering = tree.render(40);
        assert!(rendering.contains("known facts"));
        assert!(rendering.contains("AcM"));
    }

    #[test]
    fn overlay_and_materialized_exploration_agree() {
        let schema = phone_directory_access_schema();
        let hidden = hidden();
        let mut initial = Instance::new();
        initial.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Smith", 13]);
        for options in [
            LtsOptions {
                max_depth: 2,
                max_bindings_per_method: 16,
                ..LtsOptions::base()
            },
            LtsOptions {
                max_depth: 1,
                response_policy: ResponsePolicy::SubsetsOfHidden {
                    max_response_size: 2,
                },
                max_bindings_per_method: 8,
                ..LtsOptions::base()
            },
            LtsOptions {
                grounded_only: true,
                max_depth: 2,
                ..LtsOptions::base()
            },
        ] {
            let overlay_tree = LtsExplorer::new(&schema, &hidden, options.clone())
                .explore(&initial)
                .unwrap();
            let materialized_tree = LtsExplorer::new(
                &schema,
                &hidden,
                LtsOptions {
                    use_overlays: false,
                    ..options
                },
            )
            .explore(&initial)
            .unwrap();
            assert_eq!(overlay_tree, materialized_tree);
            assert_eq!(
                overlay_tree.render(500),
                materialized_tree.render(500),
                "render order must be identical"
            );
        }
    }

    #[test]
    fn overlay_nodes_share_the_initial_base() {
        let schema = phone_directory_access_schema();
        let hidden = hidden();
        let explorer = LtsExplorer::new(
            &schema,
            &hidden,
            LtsOptions {
                max_depth: 2,
                max_bindings_per_method: 16,
                ..LtsOptions::base()
            },
        );
        let tree = explorer.explore(&Instance::new()).unwrap();
        let root_base = Arc::clone(tree.nodes[0].configuration().base());
        assert!(tree
            .nodes
            .iter()
            .all(|n| Arc::ptr_eq(n.configuration().base(), &root_base)));
    }

    #[test]
    fn overlays_are_the_baseline_and_env_name_is_stable() {
        assert!(LtsOptions::base().use_overlays);
        assert_eq!(DISABLE_LTS_OVERLAY_ENV_VAR, "ACCLTL_DISABLE_LTS_OVERLAY");
    }
}
