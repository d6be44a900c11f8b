//! Nodes and pod placement with capacity accounting.

use crate::Millicores;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies a node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// One machine: a CPU capacity and its current allocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    id: NodeId,
    capacity: Millicores,
    allocated: Millicores,
}

impl Node {
    /// Creates an empty node.
    pub fn new(id: NodeId, capacity: Millicores) -> Self {
        Node {
            id,
            capacity,
            allocated: Millicores::ZERO,
        }
    }

    /// The node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Total CPU capacity.
    pub fn capacity(&self) -> Millicores {
        self.capacity
    }

    /// CPU currently reserved by placed pods.
    pub fn allocated(&self) -> Millicores {
        self.allocated
    }

    /// CPU still available.
    pub fn free(&self) -> Millicores {
        self.capacity.saturating_sub(self.allocated)
    }
}

/// A pod's placement record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PodPlacement {
    /// The hosting node.
    pub node: NodeId,
    /// The pod's current CPU limit (reserved on the node).
    pub limit: Millicores,
}

/// Why a placement or scaling request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// No node has enough free capacity for the requested limit.
    InsufficientCapacity {
        /// The CPU amount that could not be satisfied.
        requested: Millicores,
    },
    /// The pod key is not currently placed.
    UnknownPod,
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::InsufficientCapacity { requested } => {
                write!(f, "no node can fit an additional {requested}")
            }
            PlacementError::UnknownPod => write!(f, "pod is not placed"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Cluster-wide placement state: nodes plus a pod→node map with capacity
/// accounting, so vertical scaling can fail when the hosting node is full —
/// the same constraint a real VPA hits.
///
/// Pods are identified by an opaque `u64` key chosen by the caller (the
/// microservice layer uses its replica ids).
///
/// # Example
///
/// ```
/// use cluster::{ClusterState, Millicores, NodeId};
///
/// let mut cs = ClusterState::new();
/// cs.add_node(Millicores::from_cores(4));
/// let placement = cs.place(7, Millicores::from_cores(2)).unwrap();
/// assert_eq!(placement.node, NodeId(0));
/// // Growing within capacity succeeds, beyond it fails.
/// assert!(cs.resize(7, Millicores::from_cores(4)).is_ok());
/// assert!(cs.resize(7, Millicores::from_cores(5)).is_err());
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterState {
    nodes: Vec<Node>,
    pods: BTreeMap<u64, PodPlacement>,
}

impl ClusterState {
    /// An empty cluster.
    pub fn new() -> Self {
        ClusterState::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, capacity: Millicores) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(id, capacity));
        id
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The placement of pod `pod`, if placed.
    pub fn placement(&self, pod: u64) -> Option<PodPlacement> {
        self.pods.get(&pod).copied()
    }

    /// Places a pod with the given CPU limit using worst-fit (most free
    /// capacity first) to spread load, mirroring a spreading scheduler.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InsufficientCapacity`] when no node fits.
    ///
    /// # Panics
    ///
    /// Panics if `pod` is already placed.
    pub fn place(&mut self, pod: u64, limit: Millicores) -> Result<PodPlacement, PlacementError> {
        assert!(!self.pods.contains_key(&pod), "pod {pod} already placed");
        let node = self
            .nodes
            .iter()
            .filter(|n| n.free() >= limit)
            .max_by_key(|n| (n.free(), std::cmp::Reverse(n.id)))
            .map(Node::id)
            .ok_or(PlacementError::InsufficientCapacity { requested: limit })?;
        self.nodes[node.0 as usize].allocated += limit;
        let placement = PodPlacement { node, limit };
        self.pods.insert(pod, placement);
        Ok(placement)
    }

    /// Removes a pod, releasing its reservation.
    ///
    /// # Errors
    ///
    /// [`PlacementError::UnknownPod`] when the pod is not placed.
    pub fn remove(&mut self, pod: u64) -> Result<(), PlacementError> {
        let placement = self.pods.remove(&pod).ok_or(PlacementError::UnknownPod)?;
        self.nodes[placement.node.0 as usize].allocated -= placement.limit;
        Ok(())
    }

    /// Changes a pod's CPU limit in place (vertical scaling).
    ///
    /// # Errors
    ///
    /// [`PlacementError::UnknownPod`] when the pod is not placed;
    /// [`PlacementError::InsufficientCapacity`] when the hosting node cannot
    /// absorb the increase (the pod stays at its old limit).
    pub fn resize(&mut self, pod: u64, new_limit: Millicores) -> Result<(), PlacementError> {
        let placement = self.pods.get_mut(&pod).ok_or(PlacementError::UnknownPod)?;
        let node = &mut self.nodes[placement.node.0 as usize];
        if new_limit > placement.limit {
            let grow = new_limit - placement.limit;
            if node.free() < grow {
                return Err(PlacementError::InsufficientCapacity { requested: grow });
            }
            node.allocated += grow;
        } else {
            node.allocated -= placement.limit - new_limit;
        }
        placement.limit = new_limit;
        Ok(())
    }

    /// Total capacity across nodes.
    pub fn total_capacity(&self) -> Millicores {
        self.nodes
            .iter()
            .fold(Millicores::ZERO, |acc, n| acc + n.capacity())
    }

    /// Total allocation across nodes.
    pub fn total_allocated(&self) -> Millicores {
        self.nodes
            .iter()
            .fold(Millicores::ZERO, |acc, n| acc + n.allocated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cores(n: u32) -> Millicores {
        Millicores::from_cores(n)
    }

    #[test]
    fn worst_fit_spreads_pods() {
        let mut cs = ClusterState::new();
        cs.add_node(cores(4));
        cs.add_node(cores(4));
        let a = cs.place(1, cores(2)).unwrap();
        let b = cs.place(2, cores(2)).unwrap();
        assert_ne!(a.node, b.node, "two pods should land on different nodes");
    }

    #[test]
    fn placement_respects_capacity() {
        let mut cs = ClusterState::new();
        cs.add_node(cores(2));
        cs.place(1, cores(2)).unwrap();
        let err = cs.place(2, cores(1)).unwrap_err();
        assert!(matches!(err, PlacementError::InsufficientCapacity { .. }));
    }

    #[test]
    fn remove_releases_capacity() {
        let mut cs = ClusterState::new();
        cs.add_node(cores(2));
        cs.place(1, cores(2)).unwrap();
        cs.remove(1).unwrap();
        assert!(cs.place(2, cores(2)).is_ok());
        assert_eq!(cs.remove(1), Err(PlacementError::UnknownPod));
    }

    #[test]
    fn resize_up_and_down() {
        let mut cs = ClusterState::new();
        cs.add_node(cores(4));
        cs.place(1, cores(1)).unwrap();
        cs.resize(1, cores(3)).unwrap();
        assert_eq!(cs.placement(1).unwrap().limit, cores(3));
        cs.resize(1, cores(2)).unwrap();
        assert_eq!(cs.total_allocated(), cores(2));
        assert!(cs.resize(1, cores(5)).is_err());
        // Failed resize must not change anything.
        assert_eq!(cs.placement(1).unwrap().limit, cores(2));
        assert_eq!(cs.total_allocated(), cores(2));
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_place_panics() {
        let mut cs = ClusterState::new();
        cs.add_node(cores(4));
        cs.place(1, cores(1)).unwrap();
        let _ = cs.place(1, cores(1));
    }

    proptest! {
        /// Allocation accounting: total allocated equals the sum of placed
        /// pod limits after any sequence of place/remove/resize.
        #[test]
        fn prop_allocation_consistent(ops in proptest::collection::vec(0u8..3, 1..60)) {
            let mut cs = ClusterState::new();
            cs.add_node(cores(8));
            cs.add_node(cores(8));
            let mut key = 0u64;
            let mut live: Vec<u64> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    0 => {
                        key += 1;
                        if cs.place(key, Millicores::new(500 + (i as u32 % 4) * 500)).is_ok() {
                            live.push(key);
                        } else {
                            // keep key monotone; placement failed, nothing live
                        }
                    }
                    1 => {
                        if let Some(k) = live.pop() {
                            cs.remove(k).unwrap();
                        }
                    }
                    _ => {
                        if let Some(&k) = live.first() {
                            let _ = cs.resize(k, Millicores::new(250 + (i as u32 % 8) * 250));
                        }
                    }
                }
                let sum = live.iter()
                    .filter_map(|&k| cs.placement(k))
                    .fold(Millicores::ZERO, |acc, p| acc + p.limit);
                prop_assert_eq!(cs.total_allocated(), sum);
                prop_assert!(cs.total_allocated() <= cs.total_capacity());
            }
        }
    }
}
