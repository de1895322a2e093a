//! Property tests for overlay-backed LTS exploration: for random initial
//! instances and exploration options, the overlay-backed explorer must
//! produce exactly the tree the materialising explorer produces — same
//! nodes, same labels, same child order, same `Display` rendering — and the
//! overlay-backed tree is the same with per-position indexes switched off
//! process-wide.

use proptest::prelude::*;

use accltl_core::prelude::*;
use accltl_core::relational::{indexing_enabled, set_indexing_enabled};

/// Strategy: random exploration options (kept small enough for exhaustive
/// comparison, large enough to hit the binding and node caps sometimes).
fn random_options() -> impl Strategy<Value = LtsOptions> {
    let policy = prop_oneof![
        Just(ResponsePolicy::ExactFromHidden),
        (1usize..3)
            .prop_map(|max_response_size| ResponsePolicy::SubsetsOfHidden { max_response_size }),
    ];
    ((1usize..3, any::<bool>(), policy), (2usize..13, 4usize..61)).prop_map(
        |((max_depth, grounded_only, response_policy), (max_bindings_per_method, max_nodes))| {
            LtsOptions {
                max_depth,
                grounded_only,
                response_policy,
                max_bindings_per_method,
                max_nodes,
                use_overlays: true,
            }
        },
    )
}

/// Strategy: a random initial instance over the phone-directory vocabulary,
/// mixing facts the hidden instance also holds with fresh ones.
fn random_initial() -> impl Strategy<Value = Instance> {
    proptest::collection::vec((0usize..4, any::<bool>()), 0..4).prop_map(|picks| {
        let mut initial = Instance::new();
        for (i, shared) in picks {
            if shared {
                initial.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Smith", 13]);
            } else {
                initial.add_fact("Address", tuple!["High St", "OX26NN", "Seed", i as i64]);
            }
        }
        initial
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The overlay-backed and materialising explorers build identical trees:
    /// equal node-by-node (configurations, depths, edges in order), equal
    /// truncation flags, and byte-identical renderings.
    #[test]
    fn overlay_and_materialized_trees_are_identical(
        options in random_options(),
        initial in random_initial(),
    ) {
        let schema = phone_directory_access_schema();
        let hidden = phone_directory_hidden_instance();
        let overlay_tree = LtsExplorer::new(&schema, &hidden, options.clone())
            .explore(&initial)
            .expect("exploration succeeds");
        let materialized_tree = LtsExplorer::new(
            &schema,
            &hidden,
            LtsOptions { use_overlays: false, ..options },
        )
        .explore(&initial)
        .expect("exploration succeeds");

        prop_assert_eq!(&overlay_tree, &materialized_tree);
        prop_assert_eq!(overlay_tree.truncated, materialized_tree.truncated);
        prop_assert_eq!(overlay_tree.render(1_000), materialized_tree.render(1_000));
        // Node instances materialize identically, in order.
        for (a, b) in overlay_tree.nodes.iter().zip(&materialized_tree.nodes) {
            prop_assert_eq!(a.instance(), b.instance());
        }
    }

    /// The overlay-backed explorer builds the identical tree with indexes
    /// switched off process-wide (the scan reference path of
    /// `relational::index`).
    #[test]
    fn overlay_trees_are_index_independent(
        options in random_options(),
        initial in random_initial(),
    ) {
        let schema = phone_directory_access_schema();
        let hidden = phone_directory_hidden_instance();
        let explore = || {
            LtsExplorer::new(&schema, &hidden, options.clone())
                .explore(&initial)
                .expect("exploration succeeds")
        };
        prop_assert!(indexing_enabled(), "tests run with indexes on by default");
        let indexed_tree = explore();
        set_indexing_enabled(false);
        let scan_tree = explore();
        set_indexing_enabled(true);

        prop_assert_eq!(&indexed_tree, &scan_tree);
        prop_assert_eq!(indexed_tree.truncated, scan_tree.truncated);
        prop_assert_eq!(indexed_tree.render(1_000), scan_tree.render(1_000));
        for (a, b) in indexed_tree.nodes.iter().zip(&scan_tree.nodes) {
            prop_assert_eq!(a.instance(), b.instance());
        }
    }
}
