//! The TQ-tree's node arena, shared across versions by path copying.
//!
//! Nodes live in fixed-size chunks of [`NODE_CHUNK`] behind `Arc`s, and
//! a node's z-list keeps its items in `Arc`'d chunks of its own
//! ([`super::zlist`]). Cloning a tree therefore copies one pointer per
//! node chunk; a mutation through [`IndexMut`](std::ops::IndexMut) copies
//! only the chunk holding the node (a shallow copy: the z-lists' item
//! chunks stay shared), and a list edit replaces only the item chunk it
//! lands in. An update batch on a clone thus copies the chunks on the
//! paths it walks — the path copying of Driscoll et al., "Making Data
//! Structures Persistent" (JCSS 1989) — and every other chunk stays the
//! same allocation in both trees.

use super::QNode;
use std::sync::Arc;

/// Nodes per arena chunk.
pub const NODE_CHUNK: usize = 32;

/// The chunked, structurally shared node arena of a [`super::TqTree`].
#[derive(Debug, Clone, Default)]
pub struct NodeArena {
    /// Every chunk but the last holds exactly [`NODE_CHUNK`] nodes.
    chunks: Vec<Arc<Vec<QNode>>>,
    len: usize,
}

impl NodeArena {
    /// An arena over `nodes`, ids by position.
    pub(crate) fn from_vec(nodes: Vec<QNode>) -> NodeArena {
        let mut arena = NodeArena::default();
        for node in nodes {
            arena.push(node);
        }
        arena
    }

    /// Number of arena slots (live and reclaimed).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the arena has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a slot.
    pub(crate) fn push(&mut self, node: QNode) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < NODE_CHUNK => Arc::make_mut(last).push(node),
            _ => {
                let mut chunk = Vec::with_capacity(NODE_CHUNK);
                chunk.push(node);
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.len += 1;
    }

    /// Iterates every slot in id order.
    pub fn iter(&self) -> impl Iterator<Item = &QNode> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// The storage chunks (chunk `i` holds ids `i * NODE_CHUNK ..`).
    pub fn chunks(&self) -> &[Arc<Vec<QNode>>] {
        &self.chunks
    }
}

impl std::ops::Index<usize> for NodeArena {
    type Output = QNode;
    #[inline]
    fn index(&self, i: usize) -> &QNode {
        &self.chunks[i / NODE_CHUNK][i % NODE_CHUNK]
    }
}

/// Mutable access path-copies: the chunk holding slot `i` is copied first
/// when another tree version still shares it.
impl std::ops::IndexMut<usize> for NodeArena {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut QNode {
        &mut Arc::make_mut(&mut self.chunks[i / NODE_CHUNK])[i % NODE_CHUNK]
    }
}
