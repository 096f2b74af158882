//! Wall-clock time by span path, summed over many span trees, and the
//! renderer that prints it as a tree whose every node equals its
//! children plus an `unattributed` row.

use crate::trace::SpanRecord;
use std::borrow::Cow;
use std::fmt::{Display, Write as _};

/// Closes and wall-clock time per span path, over every tree added.
#[derive(Clone, Debug, Default)]
pub struct LayerTree {
    /// In first-seen order, so a parent precedes its children.
    nodes: Vec<Node>,
}

#[derive(Clone, Debug)]
struct Node {
    parent: Option<usize>,
    name: Cow<'static, str>,
    count: u64,
    wall_ns: u64,
}

impl LayerTree {
    /// Adds one tree: spans in open order, as [`crate::Telemetry::finish`]
    /// returns them. A span whose parent is not among them is a root.
    pub fn add(&mut self, spans: &[SpanRecord]) {
        let mut node_of = Vec::with_capacity(spans.len());
        for s in spans {
            let parent = s.parent.and_then(|p| spans.iter().position(|o| o.id == p));
            let parent = parent.and_then(|i| node_of.get(i).copied());
            let known = self
                .nodes
                .iter()
                .position(|n| n.parent == parent && n.name == s.name);
            let n = known.unwrap_or_else(|| {
                let name = s.name.clone();
                self.nodes.push(Node {
                    parent,
                    name,
                    count: 0,
                    wall_ns: 0,
                });
                self.nodes.len() - 1
            });
            self.nodes[n].count += 1;
            self.nodes[n].wall_ns += s.wall_ns;
            node_of.push(n);
        }
    }

    /// Whole microseconds of node `n`, the rows' unit: a parent's are
    /// never fewer than its children's together, as its nanoseconds are
    /// not.
    fn us(&self, n: usize) -> u64 {
        self.nodes[n].wall_ns / 1_000
    }

    fn children(&self, parent: Option<usize>) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&n| self.nodes[n].parent == parent)
            .collect()
    }

    /// Wall-clock µs of the roots, summed.
    pub fn total_us(&self) -> u64 {
        self.children(None).into_iter().map(|n| self.us(n)).sum()
    }

    /// One row a node — name, closes, µs, share of
    /// [`LayerTree::total_us`] — children indented under their parent
    /// and followed by `unattributed`, the part no child covers.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<28} {:>9} {:>12} {:>7}\n",
            "span", "count", "wall_us", "share"
        );
        for root in self.children(None) {
            self.render_node(&mut out, root, 0);
        }
        out
    }

    fn render_node(&self, out: &mut String, n: usize, depth: usize) {
        self.row(
            out,
            depth,
            &self.nodes[n].name,
            &self.nodes[n].count,
            self.us(n),
        );
        let children = self.children(Some(n));
        if !children.is_empty() {
            let covered: u64 = children.iter().map(|&c| self.us(c)).sum();
            children
                .into_iter()
                .for_each(|c| self.render_node(out, c, depth + 1));
            let rest = self.us(n).saturating_sub(covered);
            self.row(out, depth + 1, "unattributed", &"", rest);
        }
    }

    fn row(&self, out: &mut String, depth: usize, name: &str, count: &dyn Display, us: u64) {
        let share = 100.0 * us as f64 / self.total_us().max(1) as f64;
        let (indent, width) = (2 * depth, 28usize.saturating_sub(2 * depth));
        let _ = writeln!(
            out,
            "{:indent$}{name:<width$} {count:>9} {us:>12} {share:>6.1}%",
            ""
        );
    }
}
