//! A mutable undirected simple graph with deterministic iteration order.
//!
//! Nodes are dense indices `0..n`. Adjacency is stored as one **row** per
//! node: a `Vec<u32>` of the node's neighbors, strictly ascending, and
//! symmetric (`v` is in row `u` iff `u` is in row `v`). The linearization
//! engine relies on the order: "sort the neighbors by identifier" is a plain
//! walk of [`Graph::row`], and iteration order — hence every simulation — is
//! reproducible.
//!
//! What the operations cost on a row of length `d`: [`Graph::has_edge`] is a
//! binary search; [`Graph::add_edge`] and [`Graph::remove_edge`] are a
//! binary search plus a shift of the tail in each of the two rows, `O(d)` in
//! the worst case but a plain `push` when the new neighbor is larger than
//! every present one, which is how the generators mostly add. Code that
//! computes whole neighborhoods at once (the round engine) builds the rows
//! itself and hands them to [`Graph::from_sorted_rows`], which checks the
//! invariant above in one `O(n + m)` pass instead of paying per edge.

/// An undirected simple graph (no self-loops, no parallel edges) over nodes
/// `0..n`.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// Row `u` holds the neighbors of `u`, strictly ascending; symmetric.
    adj: Vec<Vec<u32>>,
}

/// Inserts `x` into the ascending `row`. Returns `true` if it was absent.
fn insert_sorted(row: &mut Vec<u32>, x: u32) -> bool {
    if row.last().is_none_or(|&last| last < x) {
        row.push(x);
        return true;
    }
    match row.binary_search(&x) {
        Ok(_) => false,
        Err(at) => {
            row.insert(at, x);
            true
        }
    }
}

/// Removes `x` from the ascending `row`. Returns `true` if it was present.
fn remove_sorted(row: &mut Vec<u32>, x: u32) -> bool {
    match row.binary_search(&x) {
        Ok(at) => {
            row.remove(at);
            true
        }
        Err(_) => false,
    }
}

impl Graph {
    /// An empty graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "graph too large for u32 indices");
        Graph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from an edge list. Self-loops are rejected; duplicate
    /// edges are merged.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Takes ownership of complete adjacency rows: `rows[u]` lists the
    /// neighbors of `u`.
    ///
    /// # Panics
    /// Panics unless every row is strictly ascending, in range and free of
    /// `u` itself, and the rows are symmetric. Symmetry costs one cursor per
    /// node: nodes are visited in ascending order and rows ascend, so when
    /// `u` is visited it must be the next unvisited entry of each of its
    /// neighbors' rows.
    pub fn from_sorted_rows(rows: Vec<Vec<u32>>) -> Self {
        let n = rows.len();
        assert!(n <= u32::MAX as usize, "graph too large for u32 indices");
        let mut visited = vec![0u32; n];
        for (u, row) in rows.iter().enumerate() {
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "row {u} is not strictly ascending"
            );
            for &v in row {
                let vi = v as usize;
                assert!(vi != u, "self-loop {u}");
                assert!(vi < n, "edge ({u},{v}) out of range");
                let next = &mut visited[vi];
                assert!(
                    rows[vi].get(*next as usize) == Some(&(u as u32)),
                    "edge ({u},{v}) is one-sided"
                );
                *next += 1;
            }
        }
        Graph { adj: rows }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|row| row.len()).sum::<usize>() / 2
    }

    /// Panics with the offending edge unless both endpoints are nodes.
    fn assert_in_range(&self, u: usize, v: usize) {
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "edge ({u},{v}) out of range"
        );
    }

    /// Adds the undirected edge `{u, v}`. Returns `true` if it was new.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u != v, "self-loop {u}");
        self.assert_in_range(u, v);
        let fresh = insert_sorted(&mut self.adj[u], v as u32);
        if fresh {
            insert_sorted(&mut self.adj[v], u as u32);
        }
        fresh
    }

    /// Removes the edge `{u, v}`. Returns `true` if it was present.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        self.assert_in_range(u, v);
        let present = remove_sorted(&mut self.adj[u], v as u32);
        if present {
            remove_sorted(&mut self.adj[v], u as u32);
        }
        present
    }

    /// `true` iff the edge `{u, v}` is present; `false` when either endpoint
    /// is not a node.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        // range first: `v as u32` would otherwise alias a node index
        u < self.adj.len() && v < self.adj.len() && self.adj[u].binary_search(&(v as u32)).is_ok()
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Neighbors of `u` in ascending index order.
    #[inline]
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[u].iter().map(|&v| v as usize)
    }

    /// The row of `u`: its neighbors as one strictly ascending slice.
    #[inline]
    pub fn row(&self, u: usize) -> &[u32] {
        &self.adj[u]
    }

    /// All edges, each once, as `(min, max)` pairs in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, row)| {
            row.iter()
                .map(|&v| v as usize)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Removes all edges incident to `u` (used by the churn/fault injector
    /// when a node crashes). Returns the former neighbors.
    pub fn isolate(&mut self, u: usize) -> Vec<usize> {
        let row = std::mem::take(&mut self.adj[u]);
        for &v in &row {
            remove_sorted(&mut self.adj[v as usize], u as u32);
        }
        row.into_iter().map(|v| v as usize).collect()
    }

    /// Appends a fresh isolated node, returning its index (node join under
    /// churn).
    pub fn add_node(&mut self) -> usize {
        let idx = self.adj.len();
        assert!(idx < u32::MAX as usize, "graph too large for u32 indices");
        self.adj.push(Vec::new());
        idx
    }

    /// Degree statistics `(min, max, mean)`; zeros for the empty graph.
    pub fn degree_stats(&self) -> (usize, usize, f64) {
        if self.adj.is_empty() {
            return (0, 0, 0.0);
        }
        let mut min = usize::MAX;
        let mut max = 0;
        let mut sum = 0usize;
        for row in &self.adj {
            min = min.min(row.len());
            max = max.max(row.len());
            sum += row.len();
        }
        (min, max, sum as f64 / self.adj.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn add_remove_edges() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "duplicate edge must not be new");
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert_eq!(g.edge_count(), 1);
        assert!(g.remove_edge(1, 0));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Graph::new(2).add_edge(1, 1);
    }

    #[test]
    fn has_edge_is_false_out_of_range() {
        let g = Graph::from_edges(3, [(0, 1)]);
        assert!(!g.has_edge(0, 3) && !g.has_edge(3, 0) && !g.has_edge(7, 9));
        // an index that truncates to node 1 as `u32` is still not node 1
        assert!(!g.has_edge(0, (1 << 32) | 1));
        assert!(!g.has_edge((1 << 32) | 1, 0));
    }

    #[test]
    #[should_panic(expected = "edge (0,4294967297) out of range")]
    fn remove_edge_names_an_out_of_range_edge() {
        Graph::from_edges(3, [(0, 1)]).remove_edge(0, (1 << 32) | 1);
    }

    #[test]
    #[should_panic(expected = "edge (5,0) out of range")]
    fn remove_edge_checks_both_endpoints() {
        Graph::new(2).remove_edge(5, 0);
    }

    #[test]
    #[should_panic(expected = "edge (0,2) out of range")]
    fn add_edge_out_of_range_rejected() {
        Graph::new(2).add_edge(0, 2);
    }

    #[test]
    fn inserts_keep_rows_ascending() {
        // descending, ascending and middle inserts, with a duplicate
        let mut g = Graph::new(6);
        for v in [5, 1, 3, 2, 4, 3] {
            g.add_edge(0, v);
        }
        assert_eq!(g.row(0), [1, 2, 3, 4, 5]);
        assert!(g.remove_edge(3, 0));
        assert_eq!(g.row(0), [1, 2, 4, 5]);
        assert_eq!(g.row(3), [0u32; 0]);
    }

    #[test]
    fn from_sorted_rows_accepts_what_add_edge_builds() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (0, 4), (3, 1)]);
        let rows: Vec<Vec<u32>> = (0..5).map(|u| g.row(u).to_vec()).collect();
        let h = Graph::from_sorted_rows(rows);
        assert_eq!(h.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
        assert_eq!(Graph::from_sorted_rows(Vec::new()).node_count(), 0);
        assert_eq!(Graph::from_sorted_rows(vec![vec![]; 3]).edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "row 0 is not strictly ascending")]
    fn from_sorted_rows_rejects_an_unsorted_row() {
        Graph::from_sorted_rows(vec![vec![2, 1], vec![0], vec![0]]);
    }

    #[test]
    #[should_panic(expected = "row 0 is not strictly ascending")]
    fn from_sorted_rows_rejects_a_duplicate_entry() {
        Graph::from_sorted_rows(vec![vec![1, 1], vec![0]]);
    }

    #[test]
    #[should_panic(expected = "self-loop 1")]
    fn from_sorted_rows_rejects_a_self_loop() {
        Graph::from_sorted_rows(vec![vec![1], vec![0, 1]]);
    }

    #[test]
    #[should_panic(expected = "edge (1,2) out of range")]
    fn from_sorted_rows_rejects_an_out_of_range_target() {
        Graph::from_sorted_rows(vec![vec![1], vec![0, 2]]);
    }

    #[test]
    #[should_panic(expected = "edge (0,2) is one-sided")]
    fn from_sorted_rows_rejects_a_one_sided_edge() {
        Graph::from_sorted_rows(vec![vec![1, 2], vec![0], vec![]]);
    }

    #[test]
    #[should_panic(expected = "is one-sided")]
    fn from_sorted_rows_rejects_an_edge_missing_from_the_lower_row() {
        // row 2 names 0, row 0 does not name 2: caught when 2 is visited
        Graph::from_sorted_rows(vec![vec![1], vec![0], vec![0]]);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2).collect::<Vec<_>>(), vec![0, 1, 3, 4]);
    }

    #[test]
    fn edges_listed_once_in_order() {
        let g = Graph::from_edges(4, [(3, 1), (0, 2), (1, 0)]);
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (0, 2), (1, 3)]);
    }

    #[test]
    fn isolate_detaches_node() {
        let mut g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]);
        let nbrs = g.isolate(0);
        assert_eq!(nbrs, vec![1, 2, 3]);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn add_node_extends() {
        let mut g = Graph::new(2);
        let idx = g.add_node();
        assert_eq!(idx, 2);
        g.add_edge(idx, 0);
        assert!(g.has_edge(2, 0));
    }

    #[test]
    fn degree_stats_basic() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (1, 3)]);
        let (min, max, mean) = g.degree_stats();
        assert_eq!((min, max), (1, 3));
        assert!((mean - 1.5).abs() < 1e-12);
    }
}
