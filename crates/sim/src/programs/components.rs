//! Connected components by label propagation: one processor per vertex.
//!
//! Every vertex starts labeled with its own id and repeatedly takes the
//! minimum of its label and one neighbor's label, scanning its neighbors
//! round-robin (one per step, keeping the kernel COMMON-legal: each cell
//! has a single writer). After enough rounds every vertex carries the
//! minimum vertex id of its component.
//!
//! This is the repository's stress kernel for *dynamic* addressing: the
//! label read of each odd step targets the neighbor id fetched one step
//! earlier.

use rfsp_pram::Word;

use crate::program::{Regs, SimProgram, SimWrite};

/// Connected components of an undirected graph (≤ 2¹² vertices).
///
/// Simulated memory layout: labels in `[0, n)`, then a padded adjacency
/// table `adj[i][j] = neighbor j of vertex i` in row-major order
/// (isolated slots point back at the vertex itself).
#[derive(Clone, Debug)]
pub struct Components {
    adj: Vec<Vec<usize>>,
    n: usize,
    max_deg: usize,
    rounds: usize,
}

impl Components {
    /// The most vertices the kernel is sized for.
    pub const MAX_VERTICES: usize = 4096;

    /// Build from an undirected edge list over `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n >` [`Components::MAX_VERTICES`], or an
    /// endpoint is out of range.
    pub fn new(n: usize, edges: &[(usize, usize)]) -> Self {
        assert!(n > 0, "need at least one vertex");
        assert!(n <= Self::MAX_VERTICES, "kernel sized for ≤ 4096 vertices");
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            if u != v {
                adj[u].push(v);
                adj[v].push(u);
            }
        }
        let max_deg = adj.iter().map(Vec::len).max().unwrap_or(0).max(1);
        // One round-robin sweep moves each label at most one hop along one
        // incident edge; max_deg sweeps guarantee every edge was scanned,
        // and n such super-rounds cover the longest possible chain.
        let rounds = max_deg * n;
        Components { adj, n, max_deg, rounds }
    }

    /// The expected component label (minimum vertex id) of every vertex,
    /// computed by a sequential union-find-free BFS.
    pub fn expected(&self) -> Vec<Word> {
        let mut label: Vec<usize> = (0..self.n).collect();
        // Repeated relaxation (cheap at these sizes).
        let mut changed = true;
        while changed {
            changed = false;
            for u in 0..self.n {
                for &v in &self.adj[u] {
                    let m = label[u].min(label[v]);
                    if label[u] != m || label[v] != m {
                        label[u] = m;
                        label[v] = m;
                        changed = true;
                    }
                }
            }
        }
        label.into_iter().map(|l| l as Word).collect()
    }

    fn adj_base(&self) -> usize {
        self.n
    }
}

impl SimProgram for Components {
    fn processors(&self) -> usize {
        self.n
    }

    fn memory_size(&self) -> usize {
        self.n + self.n * self.max_deg
    }

    fn steps(&self) -> usize {
        2 * self.rounds
    }

    fn init_memory(&self, mem: &mut [Word]) {
        for i in 0..self.n {
            mem[i] = i as Word;
            for j in 0..self.max_deg {
                let nbr = self.adj[i].get(j).copied().unwrap_or(i);
                mem[self.adj_base() + i * self.max_deg + j] = nbr as Word;
            }
        }
    }

    fn read_addr(&self, pid: usize, t: usize, regs: &Regs) -> usize {
        if t.is_multiple_of(2) {
            // Fetch this round's neighbor id.
            let j = (t / 2) % self.max_deg;
            self.adj_base() + pid * self.max_deg + j
        } else {
            // Fetch that neighbor's label (dynamic address).
            (regs.b as usize).min(self.n - 1)
        }
    }

    fn step(&self, pid: usize, t: usize, regs: &Regs, value: u32) -> (Regs, SimWrite) {
        if t == 0 {
            // Bootstrap: a = own label (= own id), b = first neighbor.
            return (Regs::new(pid as u32, value), SimWrite::Nop);
        }
        if t.is_multiple_of(2) {
            (Regs::new(regs.a, value), SimWrite::Nop)
        } else {
            let a = regs.a.min(value);
            (Regs::new(a, regs.b), SimWrite::Write { addr: pid, value: a })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::reference_run;

    fn labels(prog: &Components) -> Vec<Word> {
        reference_run(prog)[..prog.n].to_vec()
    }

    #[test]
    fn path_graph_is_one_component() {
        let edges: Vec<(usize, usize)> = (0..7).map(|i| (i, i + 1)).collect();
        let prog = Components::new(8, &edges);
        assert_eq!(labels(&prog), vec![0; 8]);
        assert_eq!(prog.expected(), vec![0; 8]);
    }

    #[test]
    fn two_components_and_isolated_vertex() {
        // {0,1,2}, {3,4}, {5}
        let prog = Components::new(6, &[(0, 1), (1, 2), (3, 4)]);
        let expect = vec![0, 0, 0, 3, 3, 5];
        assert_eq!(labels(&prog), expect);
        assert_eq!(prog.expected(), expect);
    }

    #[test]
    fn ring_and_star() {
        let ring: Vec<(usize, usize)> = (0..10).map(|i| (i, (i + 1) % 10)).collect();
        let prog = Components::new(10, &ring);
        assert_eq!(labels(&prog), vec![0; 10]);
        let star: Vec<(usize, usize)> = (1..9).map(|i| (0, i)).collect();
        let prog = Components::new(9, &star);
        assert_eq!(labels(&prog), vec![0; 9]);
    }

    #[test]
    fn self_loops_and_duplicate_edges_are_harmless() {
        let prog = Components::new(4, &[(0, 0), (1, 2), (2, 1)]);
        assert_eq!(labels(&prog), vec![0, 1, 1, 3]);
    }
}
