//! CFG simplification ("simplifycfg").
//!
//! * removes unreachable blocks,
//! * merges a block into its unique predecessor when that predecessor has a
//!   single successor,
//! * forwards empty blocks (containing only an unconditional branch) when
//!   doing so cannot make a successor phi ambiguous,
//! * collapses `condbr c, t, t` into `br t`,
//! * deduplicates identical phi incoming entries.
//!
//! Every rewrite preserves phi correctness; the pass runs to fixpoint in
//! rounds. Each round collapses every `condbr c, t, t`, then merges the
//! lowest-index candidate block, then forwards the lowest-index empty
//! block. None of these rewrites makes a block unreachable, so unreachable
//! blocks are removed once, up front. Removed blocks stay behind as empty
//! tombstones and merged phis go into one substitution table
//! ([`DeferredEdits`]); both are settled once, when the fixpoint is
//! reached. A round therefore costs one scan and one predecessor table
//! per rewrite.

use crate::utils::DeferredEdits;
use std::collections::HashSet;
use twill_ir::{BlockId, Function, Op};

pub fn simplifycfg(f: &mut Function) -> bool {
    let mut changed_any = crate::utils::remove_unreachable_blocks(f);
    let mut edits = DeferredEdits::default();
    let mut preds = Vec::new();
    loop {
        let mut changed = collapse_same_target_condbr(f);
        f.fill_predecessors(&mut preds);
        if merge_into_predecessor(f, &preds, &mut edits) {
            changed = true;
            f.fill_predecessors(&mut preds);
        }
        changed |= forward_empty_blocks(f, &preds);
        if !changed {
            break;
        }
        changed_any = true;
    }
    if changed_any {
        edits.finish(f);
    }
    changed_any
}

/// `condbr c, t, t` → `br t`.
fn collapse_same_target_condbr(f: &mut Function) -> bool {
    let mut changed = false;
    for b in 0..f.blocks.len() {
        let Some(term) = f.blocks[b].terminator() else { continue };
        if let Op::CondBr(_, t, e) = f.inst(term).op {
            if t == e {
                f.inst_mut(term).op = Op::Br(t);
                // Target phis may now have a duplicate entry for this pred;
                // drop extras (values are identical only if the IR was
                // unambiguous; we keep the first, matching the interpreter).
                dedup_phi_entries(f, t);
                changed = true;
            }
        }
    }
    changed
}

fn dedup_phi_entries(f: &mut Function, b: BlockId) {
    let insts: Vec<twill_ir::InstId> = f.block(b).insts.clone();
    for iid in insts {
        if let Op::Phi(incoming) = &mut f.inst_mut(iid).op {
            let mut seen = HashSet::new();
            incoming.retain(|(p, _)| seen.insert(*p));
        } else {
            break;
        }
    }
}

/// Merge the first block `s` into `p` when `p -> s` is the only edge out of
/// `p` and into `s`. `s` is left as a tombstone.
fn merge_into_predecessor(
    f: &mut Function,
    preds: &[Vec<BlockId>],
    edits: &mut DeferredEdits,
) -> bool {
    for (si, ps) in preds.iter().enumerate() {
        let s = BlockId::new(si);
        if s == f.entry {
            continue;
        }
        let &[p] = ps.as_slice() else { continue };
        if p == s {
            continue; // self-loop
        }
        // p ends in `br s`; merge.
        let term = f.block(p).terminator().unwrap();
        let mut n_succs = 0;
        f.inst(term).op.for_each_successor(|_| n_succs += 1);
        if n_succs != 1 {
            continue;
        }
        debug_assert!(matches!(f.inst(term).op, Op::Br(_)));
        // Phis in s have a single incoming (from p): replace with the value.
        let s_insts = std::mem::take(&mut f.block_mut(s).insts);
        let mut tail: Vec<twill_ir::InstId> = Vec::new();
        for iid in s_insts {
            match &f.inst(iid).op {
                Op::Phi(inc) => {
                    debug_assert_eq!(inc.len(), 1);
                    edits.replace_uses(iid, inc[0].1);
                }
                _ => tail.push(iid),
            }
        }
        // Remove p's terminator, append s's non-phi instructions.
        f.block_mut(p).insts.pop();
        f.block_mut(p).insts.extend(tail);
        // Phis in s's successors referring to s must now refer to p.
        for t in f.successors(p) {
            crate::utils::retarget_phi_pred(f, t, s, p);
        }
        return true; // one merge per round
    }
    false
}

/// Redirect the predecessors of the first empty `br`-only block straight to
/// its target. The empty block is left as a tombstone.
fn forward_empty_blocks(f: &mut Function, preds: &[Vec<BlockId>]) -> bool {
    for (ei, ps) in preds.iter().enumerate() {
        let e = BlockId::new(ei);
        if e == f.entry {
            continue;
        }
        let blk = f.block(e);
        if blk.insts.len() != 1 {
            continue;
        }
        let Op::Br(t) = f.inst(blk.insts[0]).op else { continue };
        if t == e {
            continue;
        }
        if ps.is_empty() {
            continue;
        }
        // Check safety for each pred: after forwarding, `t`'s phis must be
        // unambiguous. If t has phis, require that no pred of e is already
        // a predecessor of t, and that each pred appears only once.
        let t_has_phis = f.block(t).insts.first().map(|&i| f.inst(i).op.is_phi()).unwrap_or(false);
        if t_has_phis {
            let mut uniq = HashSet::new();
            if ps.iter().any(|p| preds[t.index()].contains(p) || !uniq.insert(*p)) {
                continue;
            }
        }
        // Rewrite each pred's terminator edge e -> t.
        for &p in ps {
            let term = f.block(p).terminator().unwrap();
            f.inst_mut(term).op.for_each_successor_mut(|b| {
                if *b == e {
                    *b = t;
                }
            });
        }
        // Phi entries in t coming from e: duplicate for each pred.
        let t_insts = f.block(t).insts.clone();
        for iid in t_insts {
            let op = &mut f.inst_mut(iid).op;
            if let Op::Phi(incoming) = op {
                if let Some(pos) = incoming.iter().position(|(b, _)| *b == e) {
                    let (_, v) = incoming.remove(pos);
                    for &p in ps {
                        incoming.push((p, v));
                    }
                }
            } else {
                break;
            }
        }
        f.block_mut(e).insts.clear();
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use twill_ir::parser::parse_module;
    use twill_ir::printer::print_module;

    fn simplify_and_check(src: &str, input: Vec<i32>) -> (String, usize) {
        let mut m = parse_module(src).unwrap();
        twill_ir::layout::assign_global_addrs(&mut m);
        let (before, _, _) = twill_ir::interp::run_main(&m, input.clone(), 1_000_000).unwrap();
        for func in &mut m.funcs {
            simplifycfg(func);
        }
        crate::utils::assert_valid_ssa(&m);
        let (after, _, _) = twill_ir::interp::run_main(&m, input, 1_000_000).unwrap();
        assert_eq!(before, after);
        let nblocks = m.funcs.iter().map(|f| f.blocks.len()).sum();
        (print_module(&m), nblocks)
    }

    #[test]
    fn merges_straightline_chain() {
        let (out, nblocks) = simplify_and_check(
            r#"
func @main() -> i32 {
bb0:
  %0 = add i32 1:i32, 2:i32
  br bb1
bb1:
  %1 = add i32 %0, 3:i32
  br bb2
bb2:
  out %1
  ret %1
}
"#,
            vec![],
        );
        assert_eq!(nblocks, 1, "{out}");
    }

    #[test]
    fn collapses_same_target_condbr() {
        let (out, _) = simplify_and_check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %1 = cmp sgt %0, 0:i32
  condbr %1, bb1, bb1
bb1:
  out %0
  ret %0
}
"#,
            vec![3],
        );
        assert!(!out.contains("condbr"), "{out}");
    }

    #[test]
    fn forwards_empty_block() {
        let (out, nblocks) = simplify_and_check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %1 = cmp sgt %0, 0:i32
  condbr %1, bb1, bb2
bb1:
  br bb3
bb2:
  out 0:i32
  br bb3
bb3:
  out %0
  ret %0
}
"#,
            vec![1],
        );
        // bb1 forwarded; bb3 phi-less so safe.
        assert!(nblocks <= 3, "{out}");
    }

    #[test]
    fn empty_block_with_phi_target_kept_when_ambiguous() {
        // Forwarding bb1 would give bb3 two edges from bb0 with different
        // phi values; must not happen.
        let (out, _) = simplify_and_check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %1 = cmp sgt %0, 0:i32
  condbr %1, bb1, bb3
bb1:
  br bb3
bb3:
  %2 = phi i32 [bb1: 1:i32], [bb0: 2:i32]
  out %2
  ret %2
}
"#,
            vec![1],
        );
        // Values still correct (checked by simplify_and_check); phi intact.
        assert!(out.contains("phi"), "{out}");
    }

    #[test]
    fn removes_unreachable_code() {
        let (_, nblocks) = simplify_and_check(
            r#"
func @main() -> i32 {
bb0:
  ret 1:i32
bb1:
  out 9:i32
  ret 2:i32
}
"#,
            vec![],
        );
        assert_eq!(nblocks, 1);
    }

    #[test]
    fn loop_structure_preserved() {
        let (out, _) = simplify_and_check(
            r#"
func @main() -> i32 {
bb0:
  br bb1
bb1:
  %0 = phi i32 [bb0: 0:i32], [bb2: %1]
  %c = cmp slt %0, 5:i32
  condbr %c, bb2, bb3
bb2:
  %1 = add i32 %0, 1:i32
  br bb1
bb3:
  out %0
  ret %0
}
"#,
            vec![],
        );
        assert!(out.contains("phi"), "{out}");
        assert!(out.contains("condbr"), "{out}");
    }

    #[test]
    fn merged_phi_chain_resolves_transitively() {
        // Round 1 merges bb1 into bb2, so %2 becomes %1; round 2 merges bb2
        // into bb0, so %1 becomes %0. The add must end up reading %0, not a
        // removed phi.
        let (out, nblocks) = simplify_and_check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  br bb2
bb1:
  %2 = phi i32 [bb2: %1]
  %3 = add i32 %2, 1:i32
  out %3
  ret %3
bb2:
  %1 = phi i32 [bb0: %0]
  br bb1
}
"#,
            vec![41],
        );
        assert_eq!(nblocks, 1, "{out}");
        assert!(!out.contains("phi"), "{out}");
        assert!(out.contains("add i32 %0, 1:i32"), "{out}");
    }

    #[test]
    fn forwarding_into_multi_pred_phi_appends_entries_in_pred_order() {
        // bb3 is empty with preds bb1 and bb2; its phi entry in bb6 is
        // replaced by one entry per pred, appended in block order after the
        // entries from bb4 and bb5 (renumbered bb3 and bb4).
        for input in [vec![1, 1], vec![1, -1], vec![-1, 1], vec![-1, -1]] {
            let (out, nblocks) = simplify_and_check(
                r#"
func @main() -> i32 {
bb0:
  %0 = in
  %c = cmp sgt %0, 0:i32
  condbr %c, bb1, bb2
bb1:
  %1 = in
  %d = cmp sgt %1, 0:i32
  condbr %d, bb3, bb4
bb2:
  %2 = in
  %e = cmp sgt %2, 0:i32
  condbr %e, bb3, bb5
bb3:
  br bb6
bb4:
  out 4:i32
  br bb6
bb5:
  out 5:i32
  br bb6
bb6:
  %3 = phi i32 [bb4: 40:i32], [bb3: 30:i32], [bb5: 50:i32]
  out %3
  ret %3
}
"#,
                input,
            );
            assert_eq!(nblocks, 6, "{out}");
            assert!(
                out.contains("phi i32 [bb3: 40:i32], [bb4: 50:i32], [bb1: 30:i32], [bb2: 30:i32]"),
                "{out}"
            );
        }
    }

    #[test]
    fn fixpoint_is_stable() {
        let src = r#"
func @main() -> i32 {
bb0:
  br bb1
bb1:
  br bb2
bb2:
  br bb3
bb3:
  ret 7:i32
}
"#;
        let mut m = parse_module(src).unwrap();
        assert!(simplifycfg(&mut m.funcs[0]));
        let once = print_module(&m);
        assert!(!simplifycfg(&mut m.funcs[0]));
        assert_eq!(once, print_module(&m));
        assert_eq!(m.funcs[0].blocks.len(), 1);
    }
}
