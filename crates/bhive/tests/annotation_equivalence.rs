//! End-to-end annotation equivalence over generated corpora: the
//! table-served path (`AnnotatedBlock::new`) and the pure
//! runtime-classifier path (`new_reference`) must agree instruction by
//! instruction — descriptors, effects, and the precomputed kernel
//! columns — on every microarchitecture, for table hits and fallbacks
//! alike.

use facile_bhive::{generate_suite, BlockStream};
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use proptest::prelude::*;

/// Assert the two annotation paths agree on one block.
fn assert_paths_agree(block: &facile_x86::Block, u: Uarch) {
    let served = AnnotatedBlock::new(block.clone(), u);
    let reference = AnnotatedBlock::new_reference(block.clone(), u);
    assert_eq!(
        served.insts(),
        reference.insts(),
        "annotation paths diverge on {u} for {}",
        block.to_hex()
    );
    assert_eq!(
        served.columns(),
        reference.columns(),
        "kernel columns diverge on {u} for {}",
        block.to_hex()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Stream-generated random blocks: table path == reference path.
    #[test]
    fn table_path_matches_reference_on_random_blocks(
        seed in 0u64..5000,
        idx in 0usize..6,
        uarch_idx in 0usize..Uarch::ALL.len(),
    ) {
        let gb = BlockStream::new(seed).nth(idx).expect("infinite stream");
        assert_paths_agree(&gb.block, Uarch::ALL[uarch_idx]);
    }
}

/// The benchmark suite corpus drives both the table hit path and the
/// runtime fallback (the generators emit addressing shapes the probe
/// corpus does not key, e.g. absolute displacements), so this one run
/// pins equivalence on both paths and proves both counters actually
/// move.
#[test]
fn suite_corpus_exercises_hits_and_fallbacks_bit_identically() {
    let before = facile_isa::static_table_stats();
    for bench in generate_suite(200, 2023) {
        assert_paths_agree(&bench.unrolled, Uarch::Skl);
        assert_paths_agree(&bench.looped, Uarch::Rkl);
    }
    let after = facile_isa::static_table_stats();
    // The counters are process-wide and monotonic, so concurrent tests
    // only ever add to them: the deltas are lower bounds.
    assert!(
        after.hits > before.hits,
        "suite corpus never hit the static tables"
    );
    assert!(
        after.fallbacks > before.fallbacks,
        "suite corpus never took the runtime fallback — the fallback \
         path is untested"
    );
}
