//! The Closure Table representation of hierarchy indices (§4, §6.2.1).
//!
//! The paper stores each hierarchy index as a closure table
//! `PL/POS(id, label, depth, aid, alabel, adepth)` — one row per
//! (node, ancestor-or-self) pair — and answers path lookups with self-joins.
//! `koko-index` exports its in-memory hierarchy index here for size
//! accounting, and the closure table answers ancestor/descendant queries
//! the way the paper's SQL does — the reference the in-memory index's
//! lookups are property-tested against. It is never persisted: snapshots
//! store the hierarchy index itself.

use crate::table::MultiMap;

/// One `(node, ancestor)` row. `depth` counts from the hierarchy root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosureRow {
    pub id: u32,
    pub label: u16,
    pub depth: u16,
    pub aid: u32,
    pub alabel: u16,
    pub adepth: u16,
}

/// Encoded width of a row (6.2.1 size accounting).
pub const CLOSURE_ROW_BYTES: usize = 16;

/// A closure table with secondary indexes on `id` and `(alabel, adepth)`.
#[derive(Debug, Clone, Default)]
pub struct ClosureTable {
    rows: Vec<ClosureRow>,
    /// node id → row indexes where this node is the descendant.
    by_id: MultiMap<u32, usize>,
    /// label → row indexes where this label is the descendant label.
    by_label: MultiMap<u16, usize>,
}

impl ClosureTable {
    pub fn new() -> ClosureTable {
        ClosureTable::default()
    }

    pub fn insert(&mut self, row: ClosureRow) {
        let idx = self.rows.len();
        self.by_id.push(row.id, idx, 8);
        self.by_label.push(row.label, idx, 8);
        self.rows.push(row);
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn rows(&self) -> &[ClosureRow] {
        &self.rows
    }

    /// All ancestors (and self) of node `id`, nearest first.
    pub fn ancestors_of(&self, id: u32) -> Vec<ClosureRow> {
        let mut out: Vec<ClosureRow> = self.by_id.get(&id).iter().map(|&i| self.rows[i]).collect();
        out.sort_by_key(|r| std::cmp::Reverse(r.adepth));
        out
    }

    /// Node ids with label `label` whose ancestor set contains a node with
    /// label `alabel` exactly `gap` levels above (`gap = 1` → parent). This
    /// is the self-join the paper issues per path step.
    pub fn nodes_with_ancestor(&self, label: u16, alabel: u16, gap: Option<u16>) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .by_label
            .get(&label)
            .iter()
            .map(|&i| self.rows[i])
            .filter(|r| {
                r.alabel == alabel
                    && r.adepth < r.depth
                    && match gap {
                        Some(g) => r.depth - r.adepth == g,
                        None => true,
                    }
            })
            .map(|r| r.id)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Approximate byte footprint (rows + two secondary indexes).
    pub fn approx_bytes(&self) -> usize {
        self.rows.len() * CLOSURE_ROW_BYTES
            + self.by_id.approx_bytes()
            + self.by_label.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy hierarchy:  0(root) → 1(dobj) → 2(nn); 0 → 3(nsubj)
    fn toy() -> ClosureTable {
        let mut t = ClosureTable::new();
        let rows = [
            // (id, label, depth, aid, alabel, adepth) — self rows included.
            (0, 10, 0, 0, 10, 0),
            (1, 20, 1, 1, 20, 1),
            (1, 20, 1, 0, 10, 0),
            (2, 30, 2, 2, 30, 2),
            (2, 30, 2, 1, 20, 1),
            (2, 30, 2, 0, 10, 0),
            (3, 40, 1, 3, 40, 1),
            (3, 40, 1, 0, 10, 0),
        ];
        for (id, label, depth, aid, alabel, adepth) in rows {
            t.insert(ClosureRow {
                id,
                label,
                depth,
                aid,
                alabel,
                adepth,
            });
        }
        t
    }

    #[test]
    fn ancestors_nearest_first() {
        let t = toy();
        let anc = t.ancestors_of(2);
        let ids: Vec<u32> = anc.iter().map(|r| r.aid).collect();
        assert_eq!(ids, vec![2, 1, 0]);
    }

    #[test]
    fn parent_join() {
        let t = toy();
        // nn(30) nodes whose *parent* is dobj(20):
        assert_eq!(t.nodes_with_ancestor(30, 20, Some(1)), vec![2]);
        // nn(30) nodes with root(10) ancestor at any depth:
        assert_eq!(t.nodes_with_ancestor(30, 10, None), vec![2]);
        // nsubj(40) with dobj(20) ancestor: none.
        assert!(t.nodes_with_ancestor(40, 20, None).is_empty());
    }

    #[test]
    fn size_accounting_grows() {
        let t = toy();
        assert!(t.approx_bytes() >= t.len() * CLOSURE_ROW_BYTES);
    }
}
