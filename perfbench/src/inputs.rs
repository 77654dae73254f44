//! Seeded inputs: the generator configurations each workload uses and the
//! seeded vertex relabelling applied to every generated graph.

use kvcc::KVertexConnectedComponent;
use kvcc_datasets::planted::PlantedConfig;
use kvcc_graph::types::Edge;
use kvcc_graph::{GraphView, VertexId};

use crate::sample::{Fnv, SplitMix};

/// A seeded permutation of `0..n`: generator id → benchmark (loaded) id.
#[derive(Clone, Debug)]
pub struct Relabel {
    new_of: Vec<VertexId>,
    old_of: Vec<VertexId>,
}

impl Relabel {
    /// Fisher–Yates over `0..n` driven by `seed`.
    pub fn seeded(n: usize, seed: u64) -> Self {
        let mut rng = SplitMix::new(seed);
        let mut old_of: Vec<VertexId> = (0..n as VertexId).collect();
        for i in (1..n).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            old_of.swap(i, j);
        }
        let mut new_of = vec![0; n];
        for (new, &old) in old_of.iter().enumerate() {
            new_of[old as usize] = new as VertexId;
        }
        Relabel { new_of, old_of }
    }

    pub fn new_id(&self, old: VertexId) -> VertexId {
        self.new_of[old as usize]
    }

    pub fn old_id(&self, new: VertexId) -> VertexId {
        self.old_of[new as usize]
    }

    /// The edges of `g` in relabelled ids.
    pub fn edges<G: GraphView>(&self, g: &G) -> Vec<Edge> {
        g.edges()
            .map(|(u, v)| (self.new_id(u), self.new_id(v)))
            .collect()
    }

    /// Checksum of a result in generator ids.
    pub fn checksum(&self, components: &[KVertexConnectedComponent]) -> u64 {
        checksum_in(components, |v| self.old_id(v))
    }
}

/// Checksum of components after mapping every vertex through `to_generator`:
/// each component sorted, the list sorted, then FNV over the lot. This is
/// the relabelling-independent form of a result.
pub fn checksum_in(
    components: &[KVertexConnectedComponent],
    to_generator: impl Fn(VertexId) -> VertexId,
) -> u64 {
    let mut mapped: Vec<Vec<VertexId>> = components
        .iter()
        .map(|c| {
            let mut ids: Vec<VertexId> = c.vertices().iter().map(|&v| to_generator(v)).collect();
            ids.sort_unstable();
            ids
        })
        .collect();
    mapped.sort();
    let mut h = Fnv::default();
    for c in &mapped {
        h.u64(c.len() as u64);
        for &v in c {
            h.u64(v as u64);
        }
    }
    h.0
}

/// The planted-10k graph: twelve chains of k = 4 blocks over a 10,000-vertex
/// background whose 4-core survives the peel as one large piece.
pub fn planted10k_config() -> PlantedConfig {
    PlantedConfig {
        num_communities: 12,
        chain_length: 3,
        community_size: (12, 16),
        background_vertices: 10_000,
        background_edges_per_vertex: 5,
        seed: 23,
        ..PlantedConfig::default()
    }
}

/// The serving graph: 40 blocks planted at k = 6 over a 3,000-vertex
/// background, connected as a whole.
pub fn serve_config() -> PlantedConfig {
    PlantedConfig {
        k: 6,
        num_communities: 40,
        chain_length: 2,
        community_size: (10, 18),
        background_vertices: 3_000,
        background_edges_per_vertex: 3,
        seed: 0x5E7E,
        ..PlantedConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabel_is_a_permutation() {
        let r = Relabel::seeded(100, 7);
        let mut seen: Vec<VertexId> = (0..100).map(|v| r.new_id(v)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        for v in 0..100 {
            assert_eq!(r.old_id(r.new_id(v)), v);
        }
    }
}
