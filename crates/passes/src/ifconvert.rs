//! If-conversion: speculate small, side-effect-free branch diamonds into
//! `select` instructions (the branch-collapsing LegUp's ILP scheduling
//! relies on; LLVM's simplifycfg does the same hoisting).
//!
//! Patterns handled (M = merge block with phis):
//! * diamond:  B → T, F;  T → M;  F → M   (T, F pure, small)
//! * triangle: B → T, M;  T → M           (T pure, small)
//!
//! The speculated instructions are hoisted into B, each phi in M becomes a
//! `select cond, v_true, v_false`, and B branches straight to M.
//!
//! The pass converts the lowest-index candidate and rescans from the
//! start, until none is left. A conversion makes only its arms
//! unreachable. They are emptied in place as tombstones and the converted
//! phis go into one substitution table ([`DeferredEdits`]), so a rescan
//! costs one predecessor table and one scan. Both are settled at exit,
//! where `remove_unreachable_blocks` runs once, only if something was
//! converted. Blocks that were unreachable on entry drop out of the scan
//! from the first conversion on.

use crate::utils::DeferredEdits;
use twill_ir::{BlockId, Function, InstId, Op, Ty, Value};

/// Maximum instructions speculated per arm.
pub const MAX_SPECULATED: usize = 24;

pub fn ifconvert(f: &mut Function) -> bool {
    let mut changed = false;
    let mut edits = DeferredEdits::default();
    let mut preds = Vec::new();
    while let Some(d) = find_candidate(f, &mut preds) {
        convert(f, d, &mut edits);
        if !changed {
            // A converted function leaves without unreachable blocks, and
            // no rescan looks at one; a function with nothing to convert
            // is returned untouched. So the first conversion retires every
            // block unreachable on entry, to be dropped at exit with the
            // arms.
            let reachable = crate::utils::reachable_blocks(f);
            for (blk, live) in f.blocks.iter_mut().zip(reachable) {
                if !live {
                    blk.insts.clear();
                }
            }
        }
        changed = true;
    }
    if changed {
        edits.finish(f);
    }
    changed
}

/// A convertible shape: `head` branches on its condition to the true and
/// false arms (a missing arm is the edge straight to `merge`).
struct Diamond {
    head: BlockId,
    arm_t: Option<BlockId>,
    arm_f: Option<BlockId>,
    merge: BlockId,
}

/// The convertible shape with the lowest-index head, if any.
fn find_candidate(f: &Function, preds: &mut Vec<Vec<BlockId>>) -> Option<Diamond> {
    f.fill_predecessors(preds);
    for b in f.block_ids() {
        let Some(term) = f.block(b).terminator() else { continue };
        let Op::CondBr(_, t, e) = f.inst(term).op else { continue };
        if t == e {
            continue;
        }
        // Identify the shape.
        let (arm_t, arm_f, merge) = match (diamond_arm(f, t), diamond_arm(f, e)) {
            // Full diamond: both arms are pure pass-through blocks with the
            // same successor.
            (Some(mt), Some(mf)) if mt == mf && t != mf && e != mt => (Some(t), Some(e), mt),
            // Triangle: one arm falls straight to the other target.
            (Some(mt), _) if mt == e => (Some(t), None, e),
            (Some(_), _) => continue,
            (None, Some(mf)) if mf == t => (None, Some(e), t),
            (None, _) => continue,
        };
        // The arms must have exactly one predecessor (b), and the merge no
        // others (phis stay simple): for a full diamond b is not a pred of
        // merge; for a triangle it is. Pred lists are in block order.
        if [arm_t, arm_f].into_iter().flatten().any(|a| preds[a.index()].len() != 1) {
            continue;
        }
        let mut expected = [arm_t.unwrap_or(b), arm_f.unwrap_or(b)];
        expected.sort();
        if preds[merge.index()] != expected {
            continue;
        }
        return Some(Diamond { head: b, arm_t, arm_f, merge });
    }
    None
}

/// Hoist the arms into the head, turn the merge phis into selects, and
/// branch straight to the merge. The arms are left as tombstones.
fn convert(f: &mut Function, d: Diamond, edits: &mut DeferredEdits) {
    let Diamond { head: b, arm_t, arm_f, merge } = d;
    let term = f.block(b).terminator().unwrap();
    let Op::CondBr(cond, ..) = f.inst(term).op else { unreachable!() };
    // Hoist arms into b (before the terminator).
    let mut insert_at = f.block(b).insts.len() - 1;
    for arm in [arm_t, arm_f].into_iter().flatten() {
        let mut moved = std::mem::take(&mut f.block_mut(arm).insts);
        moved.pop(); // the arm's `br`
        let n = moved.len();
        f.block_mut(b).insts.splice(insert_at..insert_at, moved);
        insert_at += n;
    }

    // Convert merge phis to selects placed before the terminator.
    let n_phis = f.block(merge).insts.iter().take_while(|&&i| f.inst(i).op.is_phi()).count();
    let phis: Vec<InstId> = f.block_mut(merge).insts.drain(..n_phis).collect();
    for phi in phis {
        let (vt, vf, ty) = {
            let inst = f.inst(phi);
            let Op::Phi(incoming) = &inst.op else { unreachable!() };
            let from = |blk: BlockId| {
                incoming
                    .iter()
                    .find(|(p, _)| *p == blk)
                    .map(|(_, v)| *v)
                    .expect("phi missing incoming")
            };
            (from(arm_t.unwrap_or(b)), from(arm_f.unwrap_or(b)), inst.ty)
        };
        // The select inherits the merged phi's source line.
        let sel = f.create_inst_at(Op::Select(cond, vt, vf), ty, f.loc(phi));
        f.block_mut(b).insts.insert(insert_at, sel);
        insert_at += 1;
        edits.replace_uses(phi, Value::Inst(sel));
    }
    f.inst_mut(term).op = Op::Br(merge);
}

/// If `arm` is a pure pass-through block (only speculatable instructions,
/// ends in an unconditional branch), return its successor.
fn diamond_arm(f: &Function, arm: BlockId) -> Option<BlockId> {
    let blk = f.block(arm);
    let term = blk.terminator()?;
    let Op::Br(succ) = f.inst(term).op else { return None };
    let body = &blk.insts[..blk.insts.len() - 1];
    if body.len() > MAX_SPECULATED {
        return None;
    }
    for &iid in body {
        let inst = f.inst(iid);
        if inst.op.is_phi() || inst.op.has_side_effect() || inst.op.is_terminator() {
            return None;
        }
        // Loads are not speculated (could fault / order against stores).
        if matches!(inst.op, Op::Load(_) | Op::Call(..) | Op::Intrin(..) | Op::Alloca(_)) {
            return None;
        }
        if inst.ty == Ty::Void {
            return None;
        }
    }
    Some(succ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twill_ir::parser::parse_module;
    use twill_ir::printer::print_module;

    fn check(src: &str, input: Vec<i32>) -> String {
        let mut m = parse_module(src).unwrap();
        twill_ir::layout::assign_global_addrs(&mut m);
        let (before, _, _) = twill_ir::interp::run_main(&m, input.clone(), 1_000_000).unwrap();
        for func in &mut m.funcs {
            ifconvert(func);
        }
        crate::utils::assert_valid_ssa(&m);
        let (after, _, _) = twill_ir::interp::run_main(&m, input, 1_000_000).unwrap();
        assert_eq!(before, after);
        print_module(&m)
    }

    #[test]
    fn converts_diamond_to_select() {
        let out = check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %c = cmp sgt %0, 0:i32
  condbr %c, bb1, bb2
bb1:
  %1 = mul i32 %0, 2:i32
  br bb3
bb2:
  %2 = sub i32 0:i32, %0
  br bb3
bb3:
  %3 = phi i32 [bb1: %1], [bb2: %2]
  out %3
  ret %3
}
"#,
            vec![5],
        );
        assert!(out.contains("select"), "{out}");
        assert!(!out.contains("condbr"), "{out}");
    }

    #[test]
    fn converts_triangle() {
        let out = check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %c = cmp sgt %0, 100:i32
  condbr %c, bb1, bb2
bb1:
  %1 = add i32 %0, -100:i32
  br bb2
bb2:
  %2 = phi i32 [bb0: %0], [bb1: %1]
  out %2
  ret %2
}
"#,
            vec![150],
        );
        assert!(out.contains("select"), "{out}");
    }

    #[test]
    fn skips_side_effecting_arms() {
        let out = check(
            r#"
global @g size=4 []
func @main() -> i32 {
bb0:
  %0 = in
  %p = gaddr @g
  %c = cmp sgt %0, 0:i32
  condbr %c, bb1, bb2
bb1:
  store i32 1:i32, %p
  br bb3
bb2:
  br bb3
bb3:
  %1 = load i32 %p
  out %1
  ret %1
}
"#,
            vec![5],
        );
        assert!(out.contains("condbr"), "store must not be speculated: {out}");
    }

    #[test]
    fn skips_trapping_division() {
        let out = check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %c = cmp ne %0, 0:i32
  condbr %c, bb1, bb2
bb1:
  %1 = sdiv i32 100:i32, %0
  br bb3
bb2:
  br bb3
bb3:
  %2 = phi i32 [bb1: %1], [bb2: -1:i32]
  out %2
  ret %2
}
"#,
            vec![0],
        );
        assert!(out.contains("condbr"), "div guard must survive: {out}");
    }

    #[test]
    fn nested_diamonds_collapse_iteratively() {
        let out = check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %c1 = cmp sgt %0, 0:i32
  condbr %c1, bb1, bb2
bb1:
  %1 = add i32 %0, 1:i32
  br bb3
bb2:
  %2 = add i32 %0, 2:i32
  br bb3
bb3:
  %3 = phi i32 [bb1: %1], [bb2: %2]
  %c2 = cmp slt %3, 10:i32
  condbr %c2, bb4, bb5
bb4:
  %4 = mul i32 %3, 3:i32
  br bb6
bb5:
  br bb6
bb6:
  %5 = phi i32 [bb4: %4], [bb5: %3]
  out %5
  ret %5
}
"#,
            vec![4],
        );
        assert_eq!(out.matches("select").count(), 2, "{out}");
        assert!(!out.contains("condbr"), "{out}");
    }

    #[test]
    fn outer_diamond_reads_inner_selects() {
        // The inner diamond (bb0) converts first. The outer one (bb3) then
        // branches on the inner phi %3 and merges the inner phi %4; both
        // must end up as the inner selects, never as the removed phis.
        for input in [5, 20, -5, -3] {
            let src = r#"
func @main() -> i32 {
bb0:
  %0 = in
  %c = cmp sgt %0, 0:i32
  condbr %c, bb1, bb2
bb1:
  %1 = cmp slt %0, 10:i32
  br bb3
bb2:
  %2 = cmp eq %0, -5:i32
  br bb3
bb3:
  %3 = phi i1 [bb1: %1], [bb2: %2]
  %4 = phi i32 [bb1: 7:i32], [bb2: 9:i32]
  condbr %3, bb4, bb5
bb4:
  %5 = add i32 %4, 1:i32
  br bb6
bb5:
  br bb6
bb6:
  %6 = phi i32 [bb4: %5], [bb5: %4]
  out %6
  ret %6
}
"#;
            let out = check(src, vec![input]);
            assert_eq!(out.matches("select").count(), 3, "{out}");
            assert!(!out.contains("phi") && !out.contains("condbr"), "{out}");
            let m = parse_module(&out).unwrap();
            let f = &m.funcs[0];
            let is_select =
                |v: Value| matches!(v, Value::Inst(i) if matches!(f.inst(i).op, Op::Select(..)));
            let outer = f
                .inst_ids_in_layout()
                .into_iter()
                .filter_map(|(_, i)| match f.inst(i).op {
                    Op::Select(c, t, e) if f.inst(i).ty == Ty::I32 && is_select(c) => Some((t, e)),
                    _ => None,
                })
                .collect::<Vec<_>>();
            assert_eq!(outer.len(), 1, "outer select branches on the inner select: {out}");
            assert!(is_select(outer[0].1), "outer select merges the inner select: {out}");
        }
    }

    #[test]
    fn unreachable_blocks_leave_once_something_converts() {
        // bb7 is unreachable and a third pred of bb6, which blocks the
        // second diamond until the first conversion drops bb7.
        let src = r#"
func @main() -> i32 {
bb0:
  %0 = in
  %c1 = cmp sgt %0, 0:i32
  condbr %c1, bb1, bb2
bb1:
  %1 = add i32 %0, 1:i32
  br bb3
bb2:
  %2 = add i32 %0, 2:i32
  br bb3
bb3:
  %3 = phi i32 [bb1: %1], [bb2: %2]
  %c2 = cmp slt %3, 10:i32
  condbr %c2, bb4, bb5
bb4:
  %4 = mul i32 %3, 3:i32
  br bb6
bb5:
  br bb6
bb6:
  %5 = phi i32 [bb4: %4], [bb5: %3], [bb7: 0:i32]
  out %5
  ret %5
bb7:
  br bb6
}
"#;
        let out = check(src, vec![4]);
        assert_eq!(out.matches("select").count(), 2, "{out}");
        assert!(!out.contains("bb7") && !out.contains("condbr"), "{out}");
        // With nothing to convert, the function is left as it was.
        let src = "func @main() -> i32 {\nbb0:\n  ret 0:i32\nbb1:\n  ret 1:i32\n}\n";
        let mut m = parse_module(src).unwrap();
        assert!(!ifconvert(&mut m.funcs[0]));
        assert_eq!(m.funcs[0].blocks.len(), 2);
    }

    #[test]
    fn loop_branches_untouched() {
        let out = check(
            r#"
func @main() -> i32 {
bb0:
  br bb1
bb1:
  %i = phi i32 [bb0: 0:i32], [bb1: %ni]
  %ni = add i32 %i, 1:i32
  %c = cmp slt %ni, 10:i32
  condbr %c, bb1, bb2
bb2:
  out %i
  ret %i
}
"#,
            vec![],
        );
        assert!(out.contains("condbr"), "{out}");
    }
}
