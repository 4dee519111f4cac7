//! The named workloads and the deterministic op-list generator.
//!
//! A workload fixes the page mix, the user-popularity skew, the seeded
//! population, the cache size, and whether the database is durable.
//! The generator turns a workload plus a `--seed` into every
//! connection's full op list before any clock starts, so two builds of
//! the program given the same seed do identical work and grow the data
//! identically. The program under test only ever sees the generated
//! pages; nothing on its side names a workload.

use cachegenie_repro::server::Page;
use cachegenie_repro::sim::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Client connections (and server workers): one per core of the
/// two-core reference machine. Each connection stands for one
/// application-server thread waiting for its page.
pub const CONNECTIONS: usize = 2;

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Page kinds and their integer weights.
    pub mix: &'static [(Page, u32)],
    /// Zipf exponent of user popularity (rank 1 is user 1).
    pub zipf_a: f64,
    /// Seeded users.
    pub users: usize,
    /// Cache-cluster capacity in bytes.
    pub cache_bytes: usize,
    /// Back the database with a write-ahead log.
    pub durable: bool,
    /// The working set overflows the cache, so it must evict.
    pub expect_evictions: bool,
    /// Untimed warm-up pages per connection.
    pub warmup_per_conn: usize,
    /// Measured pages per connection.
    pub measured_per_conn: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "social_mix",
            mix: &[
                (Page::LookupBM, 50),
                (Page::LookupFBM, 30),
                (Page::CreateBM, 10),
                (Page::AcceptFR, 10),
            ],
            zipf_a: 2.0,
            users: 300,
            cache_bytes: 512 * 1024 * 1024,
            durable: false,
            expect_evictions: false,
            warmup_per_conn: 250,
            measured_per_conn: 2_750,
        },
        Workload {
            name: "read_spread",
            mix: &[
                (Page::LookupBM, 40),
                (Page::LookupFBM, 30),
                (Page::Wall, 15),
                (Page::Groups, 15),
            ],
            zipf_a: 0.8,
            users: 5_000,
            cache_bytes: 256 * 1024,
            durable: false,
            expect_evictions: true,
            warmup_per_conn: 250,
            measured_per_conn: 4_000,
        },
        Workload {
            name: "durable_write",
            mix: &[
                (Page::CreateBM, 30),
                (Page::AcceptFR, 20),
                (Page::PostWall, 30),
                (Page::BatchPost, 20),
            ],
            zipf_a: 0.5,
            users: 300,
            cache_bytes: 512 * 1024 * 1024,
            durable: true,
            expect_evictions: false,
            warmup_per_conn: 250,
            measured_per_conn: 2_000,
        },
    ]
}

impl Workload {
    /// True when the mix issues a page that writes.
    pub fn writes(&self) -> bool {
        self.mix.iter().any(|&(page, _)| is_write(page))
    }
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// One page request as the client sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Page kind.
    pub kind: Page,
    /// Requesting user.
    pub user: i64,
    /// The page's argument (bookmark URL index, fallback peer, or wall
    /// owner), if it takes one.
    pub arg: Option<i64>,
}

/// One connection's pages: an untimed warm-up, then the measured run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnOps {
    /// Warm-up pages (counted in set-up time, not measured).
    pub warmup: Vec<Op>,
    /// Measured pages.
    pub measured: Vec<Op>,
}

/// splitmix64 finalizer: spreads (seed, connection) into independent
/// generator seeds.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick(mix: &[(Page, u32)], roll: u32) -> Page {
    let mut acc = 0;
    for &(page, weight) in mix {
        acc += weight;
        if roll < acc {
            return page;
        }
    }
    mix.last().expect("a mix names at least one page").0
}

/// Seeds the write stream of a mix that also reads.
const WRITE_STREAM: u64 = 0;

fn is_write(page: Page) -> bool {
    matches!(
        page,
        Page::CreateBM | Page::AcceptFR | Page::PostWall | Page::BatchPost
    )
}

/// Generates every connection's op list for `w` from `seed`.
///
/// Two generators per connection: one places the pages and draws every
/// write (its kind, user, and peer), the other draws every read (its
/// kind and user). When the mix also reads, the write generator is
/// seeded with the fixed [`WRITE_STREAM`], so every seed grows the data
/// through the same writes at the same positions and seeds differ in
/// what is read; the workload's growth, and with it the cost of every
/// later page, is then the same under every seed. A write-only mix
/// draws its writes from `seed`.
pub fn generate(w: &Workload, seed: u64) -> Vec<ConnOps> {
    let total: u32 = w.mix.iter().map(|&(_, weight)| weight).sum();
    let reads: Vec<(Page, u32)> = w
        .mix
        .iter()
        .copied()
        .filter(|&(p, _)| !is_write(p))
        .collect();
    let read_total: u32 = reads.iter().map(|&(_, weight)| weight).sum();
    let write_seed = if reads.is_empty() { seed } else { WRITE_STREAM };
    let zipf = Zipf::new(w.users, w.zipf_a);
    let users = w.users as i64;
    (0..CONNECTIONS)
        .map(|conn| {
            let stream = |s: u64| StdRng::seed_from_u64(mix64(s ^ mix64(conn as u64 + 1)));
            let (mut wrng, mut rrng) = (stream(write_seed), stream(seed));
            let mut ops: Vec<Op> = (0..w.warmup_per_conn + w.measured_per_conn)
                .map(|n| {
                    let kind = pick(w.mix, wrng.gen_range(0..total));
                    if !is_write(kind) {
                        let kind = pick(&reads, rrng.gen_range(0..read_total));
                        let user = zipf.sample(&mut rrng) as i64;
                        return Op {
                            kind,
                            user,
                            arg: None,
                        };
                    }
                    let user = zipf.sample(&mut wrng) as i64;
                    let arg = match kind {
                        // Bookmark URLs are unique per (connection, page),
                        // so every create_bm inserts a new bookmark.
                        Page::CreateBM => ((conn + 1) * 10_000_000 + n) as i64,
                        // The fallback invitee.
                        Page::AcceptFR => wrng.gen_range(1..=users),
                        // The wall owner.
                        _ => zipf.sample(&mut wrng) as i64,
                    };
                    Op {
                        kind,
                        user,
                        arg: Some(arg),
                    }
                })
                .collect();
            let measured = ops.split_off(w.warmup_per_conn);
            ConnOps {
                warmup: ops,
                measured,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_op_lists_per_connection() {
        for w in all() {
            let a = generate(&w, 11);
            let b = generate(&w, 11);
            assert_eq!(a.len(), CONNECTIONS);
            assert_eq!(a, b, "{}", w.name);
            for conn in &a {
                assert_eq!(conn.warmup.len(), w.warmup_per_conn);
                assert_eq!(conn.measured.len(), w.measured_per_conn);
            }
        }
    }

    #[test]
    fn different_seed_gives_different_op_lists() {
        for w in all() {
            let a = generate(&w, 11);
            let b = generate(&w, 12);
            for (x, y) in a.iter().zip(&b) {
                assert_ne!(x, y, "{}", w.name);
            }
        }
    }

    #[test]
    fn a_mix_that_reads_writes_the_same_under_every_seed() {
        let w = by_name("social_mix").unwrap();
        let writes = |seed| -> Vec<Vec<(usize, Op)>> {
            generate(&w, seed)
                .into_iter()
                .map(|c| {
                    c.warmup
                        .into_iter()
                        .chain(c.measured)
                        .enumerate()
                        .filter(|(_, op)| is_write(op.kind))
                        .collect()
                })
                .collect()
        };
        assert!(!writes(1)[0].is_empty());
        assert_eq!(writes(1), writes(2));
        // A write-only mix takes its writes from the seed.
        let d = by_name("durable_write").unwrap();
        assert_ne!(generate(&d, 1), generate(&d, 2));
    }

    #[test]
    fn connections_get_distinct_op_lists() {
        let w = by_name("social_mix").unwrap();
        let ops = generate(&w, 3);
        assert_ne!(ops[0], ops[1]);
    }

    #[test]
    fn ops_stay_inside_the_mix_and_the_population() {
        for w in all() {
            for conn in generate(&w, 5) {
                for op in conn.warmup.iter().chain(&conn.measured) {
                    assert!(w.mix.iter().any(|&(p, _)| p == op.kind), "{op:?}");
                    assert!((1..=w.users as i64).contains(&op.user), "{op:?}");
                    if let (Page::AcceptFR | Page::PostWall | Page::BatchPost, Some(a)) =
                        (op.kind, op.arg)
                    {
                        assert!((1..=w.users as i64).contains(&a), "{op:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn picker_honours_weight_boundaries() {
        let mix = by_name("social_mix").unwrap().mix;
        assert_eq!(pick(mix, 0), Page::LookupBM);
        assert_eq!(pick(mix, 49), Page::LookupBM);
        assert_eq!(pick(mix, 50), Page::LookupFBM);
        assert_eq!(pick(mix, 80), Page::CreateBM);
        assert_eq!(pick(mix, 99), Page::AcceptFR);
    }
}
