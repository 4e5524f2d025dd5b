//! The generated-table oracle: every row of the compile-time descriptor
//! tables must be bit-identical to what the runtime classifier produces
//! for the same instruction, on every microarchitecture.
//!
//! The probe corpus is [`facile_isa::probes::enumerate_probes`] — the
//! *same* function the build script classifies to emit the tables — so
//! this test exhaustively replays every `(mnemonic, shape key)` entry
//! the tables contain. A table that drifts from the classifier (stale
//! generation, a build-script bug, an edited generated file) fails here
//! before it can corrupt a single annotation.

use facile_isa::form::{shape_key, MAX_KEY_OPERANDS, UNKEYED};
use facile_isa::probes::enumerate_probes;
use facile_isa::tables::lookup_uncounted;
use facile_isa::{describe, AnnotatedBlock, InstrDesc, TABLE_HASH};
use facile_uarch::Uarch;
use facile_util::HeapSize;
use facile_x86::{Block, Inst, Mem, Mnemonic, Operand, Reg, Width};

#[test]
fn every_table_entry_is_bit_identical_to_runtime_classification() {
    let probes = enumerate_probes();
    assert!(
        probes.len() > 500,
        "probe corpus suspiciously small: {} instructions",
        probes.len()
    );
    for inst in &probes {
        let effects = inst.effects();
        let key = shape_key(inst, &effects);
        assert_ne!(key, UNKEYED, "generator probe must be keyable: {inst:?}");
        for u in Uarch::ALL {
            let hit = lookup_uncounted(inst.mnemonic, key, u)
                .unwrap_or_else(|| panic!("table misses its own probe {inst:?} on {u}"));
            let runtime = describe(inst, u.config());
            assert_eq!(
                *hit, runtime,
                "generated table row diverges from runtime classification \
                 for {inst:?} (key {key:#x}) on {u}"
            );
        }
    }
}

/// An addressing shape the generator never probes (absolute
/// displacement: no base, no index, not RIP-relative): the tables miss
/// it, and annotation must take the runtime-classifier fallback.
fn absolute_mem_inst() -> Inst {
    Inst {
        mnemonic: Mnemonic::Mov,
        operands: vec![
            Operand::Reg(Reg::Gpr {
                num: 0,
                width: Width::W64,
            }),
            Operand::Mem(Mem {
                base: None,
                index: None,
                scale: 1,
                disp: 64,
                width: Width::W64,
            }),
        ],
        len: 8,
        opcode_offset: 0,
        has_lcp: false,
    }
}

#[test]
fn unprobed_shapes_miss_the_table_and_classify_at_runtime() {
    let inst = absolute_mem_inst();
    let effects = inst.effects();
    let key = shape_key(&inst, &effects);
    assert_ne!(key, UNKEYED, "the shape is keyable, just not probed");
    for u in Uarch::ALL {
        assert!(
            lookup_uncounted(inst.mnemonic, key, u).is_none(),
            "absolute-displacement forms are not in the generated tables"
        );
        // The fallback classifier still produces a usable descriptor.
        let d = describe(&inst, u.config());
        assert!(!d.uops.is_empty(), "fallback descriptor has µops on {u}");
    }
}

#[test]
fn oversized_forms_are_unkeyed() {
    // More operands than the key packs: permanently on the fallback path.
    let mut inst = absolute_mem_inst();
    inst.operands = vec![Operand::Imm(1); MAX_KEY_OPERANDS + 1];
    assert_eq!(shape_key(&inst, &inst.effects()), UNKEYED);
}

#[test]
fn table_hash_is_pinned_in_the_lock_file() {
    // `tables.lock` records the hash of the generated tables; CI's
    // generated-tables job runs this test to catch silent drift between
    // the probe corpus / classifier and the committed lock file. To
    // accept an intentional change, update the file to the new value
    // printed below.
    let locked = include_str!("../tables.lock").trim().to_string();
    let current = format!("{TABLE_HASH:#018x}");
    assert_eq!(
        locked, current,
        "generated descriptor tables drifted: tables.lock pins {locked}, \
         the build produced {current}; update crates/isa/tables.lock if \
         the change is intentional"
    );
}

#[test]
fn heap_size_counts_the_owned_descriptor_of_a_table_miss() {
    // The same load through an absolute displacement (a table miss, so
    // annotation owns a runtime-classified descriptor) and through a
    // RIP-relative one (table-served, so the descriptor is a static
    // borrow). Neither reads an address register, so the kernel columns
    // match and the difference is the owned descriptor.
    let miss = absolute_mem_inst();
    let mut hit = miss.clone();
    hit.operands[1] = Operand::Mem(Mem::rip_rel(64, Width::W64));
    let block = |inst: &Inst| Block::assemble(&[(inst.mnemonic, inst.operands.clone())]).unwrap();
    let (miss_block, hit_block) = (block(&miss), block(&hit));
    assert_eq!(miss_block.insts()[0].operands, miss.operands);
    for u in Uarch::ALL {
        let hit_effects = hit_block.insts()[0].effects();
        assert!(
            lookup_uncounted(
                Mnemonic::Mov,
                shape_key(&hit_block.insts()[0], &hit_effects),
                u
            )
            .is_some(),
            "RIP-relative mov is table-served on {u}"
        );
        let owned = AnnotatedBlock::new(miss_block.clone(), u).heap_bytes();
        let borrowed = AnnotatedBlock::new(hit_block.clone(), u).heap_bytes();
        assert!(
            owned >= borrowed + std::mem::size_of::<InstrDesc>(),
            "table miss accounts {owned} bytes vs {borrowed} table-served on {u}"
        );
    }
}
