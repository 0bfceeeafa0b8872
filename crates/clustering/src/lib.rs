//! Clustering algorithms used by the missing-RSSI differentiator.
//!
//! * [`kmeans`](mod@kmeans) — Lloyd's algorithm with k-means++ seeding, plus the elbow
//!   method for selecting `K` (the `ElbowKM` baseline of the paper),
//! * [`agglomerative`](mod@agglomerative) — centroid-linkage agglomerative clustering with a
//!   pluggable [`MergeConstraint`], the substrate for `TopoAC`,
//! * [`Clustering`] — a shared result type (assignments + centroids).

pub mod agglomerative;
pub mod kmeans;

pub use agglomerative::{
    agglomerative, AgglomerativeConfig, FnConstraint, MergeConstraint, Unconstrained,
};
pub use kmeans::{elbow_method, kmeans, within_cluster_sum_of_squares, KMeansConfig};

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
/// Panics (in debug builds) if the vectors have different lengths.
pub fn euclidean_distance_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "distance between different dimensions");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two equal-length vectors.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    euclidean_distance_sq(a, b).sqrt()
}

/// The result of a clustering run: a cluster index per sample and the cluster
/// centroids.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    assignments: Vec<usize>,
    centroids: Vec<Vec<f64>>,
}

impl Clustering {
    /// Creates a clustering from assignments and centroids.
    pub fn new(assignments: Vec<usize>, centroids: Vec<Vec<f64>>) -> Self {
        Self {
            assignments,
            centroids,
        }
    }

    /// An empty clustering (no samples, no clusters).
    pub fn empty() -> Self {
        Self {
            assignments: Vec::new(),
            centroids: Vec::new(),
        }
    }

    /// Returns `true` if the clustering covers no samples.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The cluster index assigned to each sample.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Cluster centroids, indexed by cluster id.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centroids.len()
    }

    /// Number of clustered samples.
    pub fn num_samples(&self) -> usize {
        self.assignments.len()
    }

    /// Indices of the samples belonging to cluster `cluster_id`.
    pub fn members_of(&self, cluster_id: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == cluster_id)
            .map(|(i, _)| i)
            .collect()
    }

    /// Groups sample indices by cluster: `result[c]` lists the members of
    /// cluster `c`.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.num_clusters()];
        for (i, &a) in self.assignments.iter().enumerate() {
            groups[a].push(i);
        }
        groups
    }

    /// Size of the largest cluster (0 when empty).
    pub fn max_cluster_size(&self) -> usize {
        self.clusters().iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        assert_eq!(euclidean_distance_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn clustering_accessors() {
        let c = Clustering::new(vec![0, 1, 0, 1, 1], vec![vec![0.0], vec![1.0]]);
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.num_samples(), 5);
        assert_eq!(c.members_of(0), vec![0, 2]);
        assert_eq!(c.members_of(1), vec![1, 3, 4]);
        assert_eq!(c.clusters(), vec![vec![0, 2], vec![1, 3, 4]]);
        assert_eq!(c.max_cluster_size(), 3);
        assert!(!c.is_empty());
        assert!(Clustering::empty().is_empty());
        assert_eq!(Clustering::empty().max_cluster_size(), 0);
    }
}
