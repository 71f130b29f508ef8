//! Arena (de)serialization of the TQ-tree.
//!
//! The whole point of persisting the arena — rather than the trajectories
//! it indexes — is that loading becomes `O(read)`: no quadtree splits, no
//! z-partition refinement, no sorting. Every arena slot (including
//! reclaimed tombstones), the free list, both z-partitions of every
//! z-list, and every stored item's assigned z-ids go down verbatim, so
//! the decoded tree is *structurally identical* to the encoded one — same
//! node ids, same item order, same partition topology — and therefore
//! answers every query (and applies every future insert/remove) exactly
//! like the tree that was saved.
//!
//! Decoding is paranoid: all reads go through the checked
//! [`Reader`], every tag/index/id is validated before use (child links in
//! range and alive, z-partition links forward-only, item trajectory ids
//! inside the user set), and the caller is expected to run
//! [`TqTree::validate_with_count`] on the result — corrupt input yields
//! an error, never a panic and never a tree that silently misanswers.

use super::item::{StoredItem, WHOLE};
use super::zlist::ZList;
use super::zpartition::ZPartition;
use super::{NodeList, Placement, QNode, Storage, TqTree, TqTreeConfig};
use crate::service::ServiceBounds;
use bytes::{BufMut, BytesMut};
use tq_geometry::{Rect, ZId};
use tq_store::codec::{Decode, Encode, Reader};
use tq_store::StoreError;
use tq_trajectory::UserSet;

const TAG_BASIC: u8 = 0;
const TAG_Z: u8 = 1;
const NO_CHILD: u32 = u32::MAX;

fn corrupt(why: impl Into<String>) -> StoreError {
    StoreError::Corrupt(why.into())
}

fn put_bounds(b: &ServiceBounds, buf: &mut BytesMut) {
    buf.put_f64_le(b.s1);
    buf.put_f64_le(b.s2);
    buf.put_f64_le(b.s3);
}

fn get_bounds(r: &mut Reader) -> Result<ServiceBounds, StoreError> {
    Ok(ServiceBounds {
        s1: r.f64()?,
        s2: r.f64()?,
        s3: r.f64()?,
    })
}

/// Items are encoded *slim*: identity plus the assigned z-ids only. The
/// anchor points and the MBR are pure functions of the owning trajectory
/// and the item flavour (exactly the [`StoredItem`] constructors), so
/// re-deriving them on decode reproduces the original bits while cutting
/// the dominant section of a snapshot to a third of its naive size.
fn put_item(it: &StoredItem, buf: &mut BytesMut) {
    buf.put_u32_le(it.traj);
    buf.put_u32_le(it.seg);
    it.start_z.encode(buf);
    it.end_z.encode(buf);
}

/// Bytes of one encoded item (2 u32 + 2 z-ids).
const ITEM_SIZE: usize = 8 + 18;

fn item_from_parts(
    traj: u32,
    seg: u32,
    start_z: ZId,
    end_z: ZId,
    users: &UserSet,
    placement: Placement,
) -> Result<StoredItem, StoreError> {
    if (traj as usize) >= users.len() {
        return Err(corrupt(format!("item names trajectory {traj} of {}", users.len())));
    }
    let t = users.get(traj);
    let mut item = if seg == WHOLE {
        // Whole-trajectory items exist in two flavours with different
        // MBRs; the placement decides which constructor built them.
        match placement {
            Placement::FullTrajectory => StoredItem::whole(traj, t),
            _ => StoredItem::two_point(traj, t),
        }
    } else {
        if (seg as usize) >= t.num_segments() {
            return Err(corrupt(format!("item names segment {seg} of trajectory {traj}")));
        }
        StoredItem::segment(traj, t, seg as usize)
    };
    item.start_z = start_z;
    item.end_z = end_z;
    Ok(item)
}

/// Bulk item decode: one bounds check for the whole fixed-size run, then
/// straight-line parsing — items are the bulk of the arena section.
fn get_items(
    r: &mut Reader,
    n: usize,
    users: &UserSet,
    placement: Placement,
) -> Result<Vec<StoredItem>, StoreError> {
    let raw = r.take(n * ITEM_SIZE)?;
    let mut items = Vec::with_capacity(n);
    for c in raw.as_ref().chunks_exact(ITEM_SIZE) {
        let word = |at: usize| u32::from_le_bytes(c[at..at + 4].try_into().expect("chunk"));
        let zid = |at: usize| {
            let path = u64::from_le_bytes(c[at..at + 8].try_into().expect("chunk"));
            ZId::from_raw(path, c[at + 8])
                .ok_or_else(|| corrupt(format!("invalid z-id ({path:#x}, {})", c[at + 8])))
        };
        items.push(item_from_parts(
            word(0),
            word(4),
            zid(8)?,
            zid(17)?,
            users,
            placement,
        )?);
    }
    Ok(items)
}

/// Partitions are encoded as bare structure — a leaf/internal tag per
/// node, plus the first-child index for internal ones. Every node's zid
/// and rectangle are re-derived by quadrant descent from the owning
/// q-node's rectangle (the same operations `ZPartition::build` performed,
/// hence bit-identical), which keeps the partitions — tens of thousands
/// of nodes in a real tree — to ~1–5 bytes each on disk.
fn put_partition(p: &ZPartition, buf: &mut BytesMut) {
    buf.put_u32_le(p.node_count() as u32);
    for base in p.compact_nodes() {
        match base {
            None => buf.put_u8(0),
            Some(base) => {
                buf.put_u8(1);
                buf.put_u32_le(base);
            }
        }
    }
}

fn get_partition(r: &mut Reader, root: Rect) -> Result<ZPartition, StoreError> {
    let n = r.count(1)?;
    let mut compact = Vec::with_capacity(n);
    for _ in 0..n {
        compact.push(match r.u8()? {
            0 => None,
            1 => Some(r.u32()?),
            other => return Err(corrupt(format!("partition children tag {other}"))),
        });
    }
    ZPartition::from_compact(root, &compact).map_err(corrupt)
}

fn put_list(list: &NodeList, buf: &mut BytesMut) {
    match list {
        NodeList::Basic(items) => {
            buf.put_u8(TAG_BASIC);
            buf.put_u32_le(items.len() as u32);
            for it in items {
                put_item(it, buf);
            }
        }
        NodeList::Z(z) => {
            buf.put_u8(TAG_Z);
            buf.put_u32_le(z.len() as u32);
            for it in z.items() {
                put_item(it, buf);
            }
            put_partition(z.starts(), buf);
            put_partition(z.ends(), buf);
        }
    }
}

fn get_list(
    r: &mut Reader,
    users: &UserSet,
    placement: Placement,
    rect: Rect,
) -> Result<NodeList, StoreError> {
    let tag = r.u8()?;
    let n = r.count(ITEM_SIZE)?;
    let items = get_items(r, n, users, placement)?;
    match tag {
        TAG_BASIC => Ok(NodeList::Basic(items)),
        TAG_Z => {
            if !items
                .windows(2)
                .all(|w| (w[0].start_z, w[0].end_z) <= (w[1].start_z, w[1].end_z))
            {
                return Err(corrupt("z-list items out of z order"));
            }
            let starts = get_partition(r, rect)?;
            let ends = get_partition(r, rect)?;
            Ok(NodeList::Z(ZList::from_raw_parts(items, starts, ends)))
        }
        other => Err(corrupt(format!("node list tag {other}"))),
    }
}

/// Appends the complete tree — config, bounds, arena, free list — to `buf`.
pub(crate) fn encode_tree(tree: &TqTree, buf: &mut BytesMut) {
    let cfg = tree.config();
    buf.put_u32_le(cfg.beta as u32);
    buf.put_u8(match cfg.storage {
        Storage::Basic => 0,
        Storage::ZOrder => 1,
    });
    buf.put_u8(match cfg.placement {
        Placement::TwoPoint => 0,
        Placement::Segmented => 1,
        Placement::FullTrajectory => 2,
    });
    buf.put_u8(cfg.max_depth);
    tree.bounds().encode(buf);
    buf.put_u64_le(tree.item_count() as u64);

    // Each live node goes down as one length-prefixed blob so the decoder
    // can hand the blobs — the bulk of the arena — to parallel workers.
    buf.put_u32_le(tree.nodes.len() as u32);
    let mut blob = BytesMut::with_capacity(1 << 12);
    for node in tree.nodes.iter() {
        if node.dead {
            // A reclaimed slot carries no information beyond its deadness;
            // its payload was cleared by `release_node`.
            buf.put_u8(1);
            continue;
        }
        buf.put_u8(0);
        blob.put_u8(node.depth);
        for c in node.children {
            blob.put_u32_le(c.unwrap_or(NO_CHILD));
        }
        node.rect.encode(&mut blob);
        put_bounds(&node.own, &mut blob);
        put_bounds(&node.sub, &mut blob);
        put_list(&node.list, &mut blob);
        buf.put_u32_le(blob.len() as u32);
        buf.put_slice(blob.as_ref());
        blob.clear(); // keep the allocation for the next node
    }
    buf.put_u32_le(tree.free.len() as u32);
    for &f in &tree.free {
        buf.put_u32_le(f);
    }
}

/// Decodes one live node's blob (everything but the dead tag).
fn get_node_blob(
    blob: &bytes::Bytes,
    n_nodes: usize,
    users: &UserSet,
    placement: Placement,
) -> Result<QNode, StoreError> {
    let mut r = Reader::new(blob.clone());
    let depth = r.u8()?;
    let mut children = [None; 4];
    for slot in &mut children {
        let c = r.u32()?;
        if c != NO_CHILD {
            if (c as usize) >= n_nodes {
                return Err(corrupt(format!("child link {c} of {n_nodes} nodes")));
            }
            *slot = Some(c);
        }
    }
    let rect = Rect::decode(&mut r)?;
    let own = get_bounds(&mut r)?;
    let sub = get_bounds(&mut r)?;
    let list = get_list(&mut r, users, placement, rect)?;
    r.finish()?;
    Ok(QNode {
        rect,
        depth,
        children,
        list,
        own,
        sub,
        dead: false,
    })
}

/// Decodes a tree encoded by [`encode_tree`]. `users` must be the decoded
/// user set the tree indexes (item trajectory/segment ids are validated
/// against it). Structural invariants beyond what decoding can see are
/// the caller's job via [`TqTree::validate_with_count`].
pub(crate) fn decode_tree(r: &mut Reader, users: &UserSet) -> Result<TqTree, StoreError> {
    let beta = r.u32()? as usize;
    if beta == 0 {
        return Err(corrupt("β = 0"));
    }
    let storage = match r.u8()? {
        0 => Storage::Basic,
        1 => Storage::ZOrder,
        other => return Err(corrupt(format!("storage tag {other}"))),
    };
    let placement = match r.u8()? {
        0 => Placement::TwoPoint,
        1 => Placement::Segmented,
        2 => Placement::FullTrajectory,
        other => return Err(corrupt(format!("placement tag {other}"))),
    };
    let max_depth = r.u8()?;
    let config = TqTreeConfig {
        beta,
        storage,
        placement,
        max_depth,
    };
    let bounds = Rect::decode(r)?;
    let item_count = r.u64()? as usize;

    let n_nodes = r.count(1)?;
    if n_nodes == 0 {
        return Err(corrupt("tree with no nodes"));
    }
    // Phase 1: a cheap sequential scan slicing out each live node's blob.
    let mut blobs: Vec<Option<bytes::Bytes>> = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        match r.u8()? {
            1 => blobs.push(None), // reclaimed slot
            0 => {
                let len = r.u32()? as usize;
                blobs.push(Some(r.take(len)?));
            }
            other => return Err(corrupt(format!("dead tag {other}"))),
        }
    }
    // Phase 2: decode the blobs — items, z-lists, partitions — in
    // parallel; node blobs are self-contained by construction.
    let decoded = crate::parallel::par_map(&blobs, |blob| match blob {
        None => Ok(QNode {
            rect: bounds,
            depth: 0,
            children: [None; 4],
            list: NodeList::Basic(Vec::new()),
            own: ServiceBounds::ZERO,
            sub: ServiceBounds::ZERO,
            dead: true,
        }),
        Some(blob) => get_node_blob(blob, n_nodes, users, placement),
    });
    let mut nodes = Vec::with_capacity(n_nodes);
    for d in decoded {
        nodes.push(d?);
    }
    let n_free = r.count(4)?;
    let mut free = Vec::with_capacity(n_free);
    for _ in 0..n_free {
        let f = r.u32()?;
        if (f as usize) >= n_nodes {
            return Err(corrupt(format!("free-list slot {f} of {n_nodes} nodes")));
        }
        free.push(f);
    }
    if nodes[0].dead {
        return Err(corrupt("root slot is dead"));
    }
    Ok(TqTree {
        nodes: super::NodeArena::from_vec(nodes),
        free,
        config,
        bounds,
        item_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tqtree::TqTree;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use tq_geometry::Point;
    use tq_store::codec::Reader;
    use tq_trajectory::Trajectory;

    fn random_users(n: usize, seed: u64) -> UserSet {
        let mut rng = StdRng::seed_from_u64(seed);
        UserSet::from_vec(
            (0..n)
                .map(|_| {
                    let pts = (0..rng.gen_range(2usize..5))
                        .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                        .collect();
                    Trajectory::new(pts)
                })
                .collect(),
        )
    }

    fn roundtrip(tree: &TqTree, users: &UserSet) -> TqTree {
        let mut buf = BytesMut::with_capacity(1 << 16);
        encode_tree(tree, &mut buf);
        let mut r = Reader::new(buf.freeze());
        let decoded = decode_tree(&mut r, users).expect("decode");
        r.finish().expect("fully consumed");
        decoded
    }

    #[test]
    fn roundtrip_is_structurally_identical() {
        for placement in [
            Placement::TwoPoint,
            Placement::Segmented,
            Placement::FullTrajectory,
        ] {
            for storage in [Storage::Basic, Storage::ZOrder] {
                let users = random_users(300, 7);
                let config = TqTreeConfig {
                    beta: 8,
                    storage,
                    placement,
                    max_depth: 20,
                };
                let tree = TqTree::build(&users, config);
                let back = roundtrip(&tree, &users);
                back.validate(&users).expect("decoded tree validates");
                assert_eq!(back.nodes.len(), tree.nodes.len());
                assert_eq!(back.free, tree.free);
                assert_eq!(back.item_count(), tree.item_count());
                assert_eq!(back.bounds(), tree.bounds());
                assert_eq!(back.config(), tree.config());
                for (a, b) in tree.nodes.iter().zip(back.nodes.iter()) {
                    assert_eq!(a.rect, b.rect);
                    assert_eq!(a.depth, b.depth);
                    assert_eq!(a.children, b.children);
                    assert_eq!(a.own.s1.to_bits(), b.own.s1.to_bits());
                    assert_eq!(a.sub.s3.to_bits(), b.sub.s3.to_bits());
                    assert_eq!(a.list.len(), b.list.len());
                    for (x, y) in a.list.items().zip(b.list.items()) {
                        assert_eq!((x.traj, x.seg), (y.traj, y.seg));
                        assert_eq!(x.start_z, y.start_z);
                        assert_eq!(x.end_z, y.end_z);
                    }
                }
            }
        }
    }

    #[test]
    fn roundtrip_preserves_tombstones_and_free_list() {
        let users = random_users(200, 13);
        let mut tree = TqTree::build_with_bounds(
            &users,
            TqTreeConfig::default().with_beta(4),
            Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        );
        let mut users = users;
        // Churn to create reclaimed slots.
        for id in 0..50u32 {
            tree.remove(&users, id).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..10 {
            let t = Trajectory::two_point(
                Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
            );
            tree.insert(&mut users, t).unwrap();
        }
        let back = roundtrip(&tree, &users);
        assert_eq!(back.free, tree.free);
        assert_eq!(back.node_count(), tree.node_count());
        back.validate_with_count(&users, tree.item_count())
            .expect("churned tree validates after roundtrip");
    }

    #[test]
    fn decoded_tree_accepts_further_updates_identically() {
        let users = random_users(150, 21);
        let mut a_users = users.clone();
        let mut b_users = users.clone();
        let mut original =
            TqTree::build_with_bounds(&users, TqTreeConfig::default().with_beta(8),
                Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)));
        let mut decoded = roundtrip(&original, &users);
        let mut rng = StdRng::seed_from_u64(5);
        for step in 0..60 {
            if step % 3 == 0 {
                let id = rng.gen_range(0..a_users.len() as u32);
                let a = original.remove(&a_users, id);
                let b = decoded.remove(&b_users, id);
                assert_eq!(a.is_ok(), b.is_ok());
            } else {
                let t = Trajectory::two_point(
                    Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                    Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                );
                let a = original.insert(&mut a_users, t.clone()).unwrap();
                let b = decoded.insert(&mut b_users, t).unwrap();
                assert_eq!(a, b, "diverging ids at step {step}");
            }
        }
        // Same shape after identical histories: arena slot for slot.
        assert_eq!(original.nodes.len(), decoded.nodes.len());
        assert_eq!(original.free, decoded.free);
        for (x, y) in original.nodes.iter().zip(decoded.nodes.iter()) {
            assert_eq!(x.dead, y.dead);
            assert_eq!(x.children, y.children);
            assert_eq!(x.list.len(), y.list.len());
        }
    }

    #[test]
    fn corrupt_arena_bytes_error_never_panic() {
        let users = random_users(60, 3);
        let tree = TqTree::build(&users, TqTreeConfig::default().with_beta(4));
        let mut buf = BytesMut::with_capacity(1 << 14);
        encode_tree(&tree, &mut buf);
        let bytes = buf.freeze();
        // Every truncation errors.
        for cut in 0..bytes.len() {
            let mut r = Reader::new(bytes.slice(0..cut));
            assert!(decode_tree(&mut r, &users).is_err(), "cut {cut}");
        }
        // Sampled bit flips either error out or are caught by validate()
        // (some flips only touch float payloads, which decode fine but
        // cannot crash) — the requirement is: no panic.
        let raw = bytes.to_vec();
        for i in (0..raw.len()).step_by(7) {
            let mut bad = raw.clone();
            bad[i] ^= 0x20;
            let mut r = Reader::new(bytes::Bytes::from(bad));
            if let Ok(t) = decode_tree(&mut r, &users) {
                let _ = t.validate(&users); // must not panic
            }
        }
    }

    #[test]
    fn item_ids_are_validated_against_the_user_set() {
        let users = random_users(20, 1);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let mut buf = BytesMut::with_capacity(1 << 12);
        encode_tree(&tree, &mut buf);
        // Decode against a *smaller* user set: items now dangle.
        let fewer = users.truncated(3);
        let mut r = Reader::new(buf.freeze());
        assert!(matches!(
            decode_tree(&mut r, &fewer),
            Err(StoreError::Corrupt(_))
        ));
    }
}
