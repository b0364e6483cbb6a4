//! Hash-consing: a real fixpoint run shows interner dedup, and the
//! session interner's memoized lattice operations agree with direct
//! computation on randomized inputs.

use absdom::{AbsLeaf, PNode, Pattern, SessionInterner};
use awam_core::Analyzer;

#[test]
fn end_to_end_interner_counters_show_dedup() {
    // Regression guard for the insert path: with id-keyed entries the
    // table never clones a pattern, so the only pattern constructions
    // are the interner's misses — and the repeated patterns of a real
    // fixpoint run must show up as dedup hits and saved bytes.
    let b = bench_suite::all()
        .into_iter()
        .find(|b| b.name == "nreverse")
        .expect("nreverse in suite");
    let entry = Pattern::from_spec(b.entry_specs).expect("specs");
    let program = b.parse().expect("parse");
    let analyzer = Analyzer::compile(&program).expect("compile");
    let analysis = analyzer.analyze(b.entry, &entry).expect("analysis");
    let i = analysis.intern_stats;
    assert!(i.intern_hits > 0, "no dedup hits at all");
    assert!(i.bytes_saved > 0, "dedup saved no bytes");
    // The stats surface carries the counters out.
    let json = analysis.stats_json();
    let interner = json.get("interner").expect("interner key in stats_json");
    assert!(interner.get("intern_hits").is_some());
    assert!(interner.get("lub_cache_hits").is_some());
    assert!(interner.get("bytes_saved").is_some());
}

// ----- randomized memo-cache agreement -----

/// xorshift64* — the workspace's deterministic PRNG (offline build, no
/// proptest).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random small pattern: leaves, integers, nil, lists, structs.
fn random_pattern(rng: &mut Rng, arity: usize) -> Pattern {
    let mut interner = prolog_syntax::Interner::new();
    let mut nodes = Vec::new();
    let roots = (0..arity)
        .map(|_| random_node(rng, 2, &mut nodes, &mut interner))
        .collect();
    Pattern::new(nodes, roots)
}

fn random_node(
    rng: &mut Rng,
    depth: usize,
    nodes: &mut Vec<PNode>,
    interner: &mut prolog_syntax::Interner,
) -> usize {
    let node = if depth > 0 && rng.below(3) == 0 {
        if rng.below(2) == 0 {
            let e = random_node(rng, depth - 1, nodes, interner);
            PNode::List(e)
        } else {
            let f = interner.intern(if rng.below(2) == 0 { "f" } else { "g" });
            let n = 1 + rng.below(2) as usize;
            let args = (0..n)
                .map(|_| random_node(rng, depth - 1, nodes, interner))
                .collect();
            PNode::Struct(f, args)
        }
    } else {
        match rng.below(3) {
            0 => PNode::Leaf(AbsLeaf::ALL[rng.below(AbsLeaf::ALL.len() as u64) as usize]),
            1 => PNode::Int(rng.below(5) as i64),
            _ => PNode::Atom(absdom::nil_symbol()),
        }
    };
    nodes.push(node);
    nodes.len() - 1
}

#[test]
fn memoized_lattice_ops_agree_with_direct_computation() {
    let mut rng = Rng::new(0xE71D_2026);
    let mut session = SessionInterner::default();
    for round in 0..500 {
        let arity = 1 + rng.below(3) as usize;
        let a = random_pattern(&mut rng, arity);
        let b = random_pattern(&mut rng, a.arity());
        let ia = session.intern(a.clone());
        let ib = session.intern(b.clone());
        // Interning is the identity on the element.
        assert_eq!(session.resolve(ia), &a, "round {round}");
        assert_eq!(session.resolve(ib), &b, "round {round}");
        assert_eq!(session.is_ground(ia), a.is_ground(), "round {round}");
        // Memoized lub and leq equal direct computation — twice, so the
        // second answer comes from the cache.
        let direct = a.lub(&b);
        for pass in 0..2 {
            let joined = session.lub(ia, ib);
            assert_eq!(
                session.resolve(joined),
                &direct,
                "round {round} pass {pass}: lub mismatch"
            );
            assert_eq!(
                session.leq(ia, ib),
                a.leq(&b),
                "round {round} pass {pass}: leq mismatch"
            );
            assert_eq!(
                session.leq(ib, ia),
                b.leq(&a),
                "round {round} pass {pass}: reversed leq mismatch"
            );
        }
    }
    let stats = session.stats();
    assert!(stats.lub_cache_hits > 0, "second passes must hit the cache");
    assert!(stats.leq_cache_hits > 0);
    assert!(stats.intern_hits > 0, "random duplicates must deduplicate");
}
