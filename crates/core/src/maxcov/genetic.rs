//! Genetic-algorithm MaxkCovRST (the paper's Gn-TQ(Z) competitor).
//!
//! The paper evaluates a genetic algorithm with 20 iterations as an
//! alternative metaheuristic and finds it inferior to greedy at large
//! facility counts (Fig. 10(d)). This module implements a conventional GA
//! over k-subsets: tournament selection, uniform subset crossover, swap
//! mutation, elitism — with fitness = combined coverage value evaluated from
//! the [`ServedTable`] masks. Deterministic under a fixed seed.

use super::{Coverage, CovOutcome, ServedTable};
use crate::parallel;
use crate::service::ServiceModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tq_trajectory::UserSet;

/// Genetic algorithm parameters. Defaults match the paper's setup
/// (20 iterations) with conventional values elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct GeneticConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations ("iterations" in the paper: 20).
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-gene probability of a swap mutation.
    pub mutation_rate: f64,
    /// Number of elite chromosomes copied unchanged each generation.
    pub elitism: usize,
    /// RNG seed (the algorithm is deterministic given the seed).
    pub seed: u64,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        GeneticConfig {
            population: 32,
            generations: 20,
            tournament: 3,
            mutation_rate: 0.3,
            elitism: 2,
            seed: 0x5EED,
        }
    }
}

type Chromosome = Vec<usize>; // candidate indices into the table, distinct

fn fitness(table: &ServedTable, users: &UserSet, model: &ServiceModel, c: &Chromosome) -> f64 {
    Coverage::value_of_subset(table, users, model, c)
}

fn random_subset(rng: &mut StdRng, n: usize, k: usize) -> Chromosome {
    let mut idxs: Vec<usize> = (0..n).collect();
    idxs.shuffle(rng);
    idxs.truncate(k);
    idxs.sort_unstable();
    idxs
}

/// Uniform subset crossover: child genes are drawn from the union of the
/// parents, preferring shared genes (which are certainly in both parents'
/// good regions).
fn crossover(rng: &mut StdRng, a: &Chromosome, b: &Chromosome, n: usize) -> Chromosome {
    let k = a.len();
    let mut pool: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
    pool.sort_unstable();
    pool.dedup();
    pool.shuffle(rng);
    let mut child: Chromosome = pool.into_iter().take(k).collect();
    // Union smaller than k (heavy overlap): top up with random genes.
    while child.len() < k {
        let g = rng.gen_range(0..n);
        if !child.contains(&g) {
            child.push(g);
        }
    }
    child.sort_unstable();
    child
}

fn mutate(rng: &mut StdRng, c: &mut Chromosome, n: usize, rate: f64) {
    if n <= c.len() {
        return; // no replacement genes available
    }
    for i in 0..c.len() {
        if rng.gen_bool(rate) {
            loop {
                let g = rng.gen_range(0..n);
                if !c.contains(&g) {
                    c[i] = g;
                    break;
                }
            }
        }
    }
    c.sort_unstable();
}

/// Runs the genetic algorithm over the candidates of `table`, returning the
/// best size-`k` subset found.
pub fn genetic(
    table: &ServedTable,
    users: &UserSet,
    model: &ServiceModel,
    k: usize,
    cfg: &GeneticConfig,
) -> CovOutcome {
    let n = table.len();
    let k = k.min(n);
    if k == 0 || n == 0 {
        return CovOutcome {
            chosen: Vec::new(),
            value: 0.0,
            users_served: 0,
            stats: table.stats,
        };
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pop_size = cfg.population.max(2);
    // Chromosome generation consumes the RNG sequentially (determinism);
    // fitness evaluation is pure and fans out across threads. The split
    // leaves the RNG stream — and therefore the whole run — bit-identical
    // to a fully serial execution.
    let evaluate = |chroms: Vec<Chromosome>| -> Vec<(Chromosome, f64)> {
        let fits = parallel::par_map(&chroms, |c| fitness(table, users, model, c));
        chroms.into_iter().zip(fits).collect()
    };

    let initial: Vec<Chromosome> = (0..pop_size)
        .map(|_| random_subset(&mut rng, n, k))
        .collect();
    let mut population: Vec<(Chromosome, f64)> = evaluate(initial);

    let tournament = |rng: &mut StdRng, pop: &[(Chromosome, f64)]| -> Chromosome {
        let mut best: Option<&(Chromosome, f64)> = None;
        for _ in 0..cfg.tournament.max(1) {
            let cand = &pop[rng.gen_range(0..pop.len())];
            if best.map(|b| cand.1 > b.1).unwrap_or(true) {
                best = Some(cand);
            }
        }
        best.expect("non-empty population").0.clone()
    };

    for _ in 0..cfg.generations {
        population.sort_by(|a, b| b.1.total_cmp(&a.1));
        let elites: Vec<(Chromosome, f64)> = population
            .iter()
            .take(cfg.elitism.min(pop_size))
            .cloned()
            .collect();
        let children: Vec<Chromosome> = (elites.len()..pop_size)
            .map(|_| {
                let pa = tournament(&mut rng, &population);
                let pb = tournament(&mut rng, &population);
                let mut child = crossover(&mut rng, &pa, &pb, n);
                mutate(&mut rng, &mut child, n, cfg.mutation_rate);
                child
            })
            .collect();
        let mut next = elites;
        next.extend(evaluate(children));
        population = next;
    }
    population.sort_by(|a, b| b.1.total_cmp(&a.1));
    let (best, _) = population.into_iter().next().expect("non-empty population");

    let mut cov = Coverage::new();
    for &i in &best {
        cov.add(users, model, &table.masks[i]);
    }
    CovOutcome {
        chosen: best.iter().map(|&i| table.ids[i]).collect(),
        value: cov.value(),
        users_served: cov.users_served(users, model),
        stats: table.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxcov::{exact, greedy};
    use crate::service::Scenario;
    use crate::tqtree::{TqTree, TqTreeConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use tq_geometry::Point;
    use tq_trajectory::{Facility, FacilitySet, Trajectory};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn instance(seed: u64, n_fac: usize) -> (UserSet, FacilitySet) {
        let mut rng = StdRng::seed_from_u64(seed);
        let users = UserSet::from_vec(
            (0..250)
                .map(|_| {
                    Trajectory::two_point(
                        p(rng.gen_range(0.0..80.0), rng.gen_range(0.0..80.0)),
                        p(rng.gen_range(0.0..80.0), rng.gen_range(0.0..80.0)),
                    )
                })
                .collect(),
        );
        let facilities = FacilitySet::from_vec(
            (0..n_fac)
                .map(|_| {
                    let mut x = rng.gen_range(5.0..75.0);
                    let mut y = rng.gen_range(5.0..75.0);
                    Facility::new(
                        (0..5)
                            .map(|_| {
                                x = (x + rng.gen_range(-7.0..7.0f64)).clamp(0.0, 80.0);
                                y = (y + rng.gen_range(-7.0..7.0f64)).clamp(0.0, 80.0);
                                p(x, y)
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        (users, facilities)
    }

    #[test]
    fn genetic_is_deterministic_under_seed() {
        let (users, facilities) = instance(1, 12);
        let model = ServiceModel::new(Scenario::Transit, 5.0);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        let cfg = GeneticConfig::default();
        let a = genetic(&table, &users, &model, 4, &cfg);
        let b = genetic(&table, &users, &model, 4, &cfg);
        assert_eq!(a.chosen, b.chosen);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn genetic_never_beats_exact() {
        let (users, facilities) = instance(2, 10);
        let model = ServiceModel::new(Scenario::Transit, 5.0);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        let e = exact::exact(&table, &users, &model, 3, None).unwrap();
        let g = genetic(&table, &users, &model, 3, &GeneticConfig::default());
        assert!(g.value <= e.value + 1e-9);
        assert_eq!(g.chosen.len(), 3);
    }

    #[test]
    fn genetic_reaches_reasonable_quality() {
        let (users, facilities) = instance(3, 12);
        let model = ServiceModel::new(Scenario::Transit, 6.0);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        let g = greedy::greedy(&table, &users, &model, 4);
        let gn = genetic(&table, &users, &model, 4, &GeneticConfig::default());
        // The GA (pop 32, 20 gens, 12 candidates) should land within 30% of
        // greedy on this easy instance.
        assert!(
            gn.value >= 0.7 * g.value,
            "GA value {} too far below greedy {}",
            gn.value,
            g.value
        );
    }

    #[test]
    fn degenerate_parameters() {
        let (users, facilities) = instance(4, 3);
        let model = ServiceModel::new(Scenario::Transit, 5.0);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        // k larger than candidate count → whole set.
        let out = genetic(&table, &users, &model, 10, &GeneticConfig::default());
        assert_eq!(out.chosen.len(), 3);
        // k = 0 → empty.
        let out = genetic(&table, &users, &model, 0, &GeneticConfig::default());
        assert!(out.chosen.is_empty());
    }

    #[test]
    fn chromosomes_stay_valid() {
        // Mutation/crossover with k == n must not loop or duplicate genes.
        let (users, facilities) = instance(5, 4);
        let model = ServiceModel::new(Scenario::Transit, 5.0);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        let out = genetic(&table, &users, &model, 4, &GeneticConfig::default());
        let mut chosen = out.chosen.clone();
        chosen.sort_unstable();
        chosen.dedup();
        assert_eq!(chosen.len(), 4, "duplicate genes in result");
    }
}
