//! The answer oracle: each statement's expected answers, computed at
//! set-up independently of the planner and executor under test.
//!
//! It follows the paper's naive algorithm (Fig. 1) in meaning but not in
//! method: rather than trying every binding of the values found so far, a
//! fixpoint over the in-memory instance keeps each tuple whose input values
//! have all been found, which is exactly the set of tuples Fig. 1 extracts.
//! The statement is then evaluated over those tuples by backtracking.

use std::collections::{BTreeSet, HashSet};
use std::fmt::Write as _;

use toorjah::catalog::{DomainId, Tuple, Value};
use toorjah::engine::{InstanceSource, SourceProvider};
use toorjah::query::{ConjunctiveQuery, NegatedQuery, Statement, Term, VarId};

/// Sorts and deduplicates an answer set, the form answers are compared in.
pub fn canonical(mut answers: Vec<Tuple>) -> Vec<Tuple> {
    answers.sort();
    answers.dedup();
    answers
}

/// The expected answers of `statement` over `source`, in canonical form.
pub fn expected(statement: &Statement, source: &InstanceSource) -> Vec<Tuple> {
    expected_within(statement, source, u64::MAX).expect("an unlimited evaluation completes")
}

/// [`expected`], or `None` when evaluating the statement's joins would
/// take more than `max_steps` tuple comparisons.
pub fn expected_within(
    statement: &Statement,
    source: &InstanceSource,
    max_steps: u64,
) -> Option<Vec<Tuple>> {
    let mut steps = max_steps;
    let answers = match statement {
        Statement::Cq(q) => evaluate(q, source, &mut steps)?,
        Statement::Union(u) => {
            let mut all = Vec::new();
            for q in u.cqs() {
                all.extend(evaluate(q, source, &mut steps)?);
            }
            all
        }
        Statement::Negated(nq) => negated(nq, source, &mut steps)?,
    };
    Some(canonical(answers))
}

/// The number of accesses Fig. 1 makes for `query`: every relation is
/// accessed with every combination of obtained values at its inputs.
pub fn naive_accesses(query: &ConjunctiveQuery, source: &InstanceSource) -> u64 {
    let (_, known) = obtainable(query, source);
    source
        .schema()
        .iter()
        .map(|(_, rel)| {
            rel.pattern()
                .input_positions()
                .map(|k| known.iter().filter(|(d, _)| *d == rel.domain(k)).count() as u64)
                .fold(1u64, u64::saturating_mul)
        })
        .fold(0u64, u64::saturating_add)
}

/// The largest cross product a left-to-right join of `query`'s body
/// builds: the running product of the obtainable tuple counts of the atoms
/// that share no variable with an earlier atom. An empty atom ends the
/// growth but not the work done before it.
pub fn body_order_cross_product(query: &ConjunctiveQuery, source: &InstanceSource) -> u64 {
    let (facts, _) = obtainable(query, source);
    let mut seen: HashSet<VarId> = HashSet::new();
    let (mut product, mut largest) = (1u64, 1u64);
    for atom in query.atoms() {
        let vars: Vec<VarId> = atom.variables().collect();
        if !seen.is_empty() && !vars.is_empty() && !vars.iter().any(|v| seen.contains(v)) {
            product = product.saturating_mul(facts[atom.relation().index()].len() as u64);
            largest = largest.max(product);
        }
        seen.extend(vars);
    }
    largest
}

/// The tuples of each relation obtainable from `query`'s constants, and
/// the values obtained: a tuple is obtainable once every value at its
/// input positions has been obtained, and then makes all its values
/// obtainable.
fn obtainable(
    query: &ConjunctiveQuery,
    source: &InstanceSource,
) -> (Vec<Vec<Tuple>>, HashSet<(DomainId, Value)>) {
    let schema = source.schema();
    let mut known: HashSet<(DomainId, Value)> = query
        .constants(schema)
        .into_iter()
        .map(|(v, d)| (d, v))
        .collect();
    let mut taken: Vec<Vec<bool>> = schema
        .iter()
        .map(|(id, _)| vec![false; source.instance().relation_len(id)])
        .collect();
    let mut facts: Vec<Vec<Tuple>> = vec![Vec::new(); schema.relation_count()];
    loop {
        let mut changed = false;
        for (id, rel) in schema.iter() {
            for (i, t) in source.instance().full_extension(id).iter().enumerate() {
                let ready = || {
                    rel.pattern()
                        .input_positions()
                        .all(|k| known.contains(&(rel.domain(k), t[k])))
                };
                if taken[id.index()][i] || !ready() {
                    continue;
                }
                taken[id.index()][i] = true;
                changed = true;
                known.extend((0..rel.arity()).map(|k| (rel.domain(k), t[k])));
                facts[id.index()].push(t.clone());
            }
        }
        if !changed {
            return (facts, known);
        }
    }
}

/// The answers of `query` over its obtainable tuples, or `None` when the
/// step budget runs out.
fn evaluate(
    query: &ConjunctiveQuery,
    source: &InstanceSource,
    steps: &mut u64,
) -> Option<Vec<Tuple>> {
    let (facts, _) = obtainable(query, source);
    let mut binding: Vec<Option<Value>> = vec![None; query.var_count()];
    let mut left: Vec<usize> = (0..query.atoms().len()).collect();
    let mut answers = BTreeSet::new();
    search(query, &facts, &mut left, &mut binding, &mut answers, steps)?;
    Some(answers.into_iter().collect())
}

/// Backtracking join: binds the remaining atom with the most bound terms
/// next, so selective atoms prune early.
fn search(
    query: &ConjunctiveQuery,
    facts: &[Vec<Tuple>],
    left: &mut Vec<usize>,
    binding: &mut Vec<Option<Value>>,
    answers: &mut BTreeSet<Tuple>,
    steps: &mut u64,
) -> Option<()> {
    if left.is_empty() {
        let head: Tuple = query
            .head()
            .iter()
            .map(|v| binding[v.0 as usize].expect("a safe query binds its head"))
            .collect();
        answers.insert(head);
        return Some(());
    }
    let bound = |i: usize| {
        query.atoms()[i]
            .terms()
            .iter()
            .filter(|t| {
                matches!(t, Term::Const(_))
                    || matches!(t, Term::Var(v) if binding[v.0 as usize].is_some())
            })
            .count()
    };
    let pick = (0..left.len())
        .max_by_key(|&j| bound(left[j]))
        .expect("atoms are left");
    let atom_index = left.swap_remove(pick);
    let atom = &query.atoms()[atom_index];
    for tuple in &facts[atom.relation().index()] {
        *steps = steps.checked_sub(1)?;
        let mut fresh: Vec<usize> = Vec::new();
        let fits = atom
            .terms()
            .iter()
            .zip(tuple.values())
            .all(|(term, &value)| match term {
                Term::Const(c) => *c == value,
                Term::Var(v) => match binding[v.0 as usize] {
                    Some(b) => b == value,
                    None => {
                        binding[v.0 as usize] = Some(value);
                        fresh.push(v.0 as usize);
                        true
                    }
                },
            });
        let outcome = if fits {
            search(query, facts, left, binding, answers, steps)
        } else {
            Some(())
        };
        for v in fresh {
            binding[v] = None;
        }
        outcome?;
    }
    left.push(atom_index);
    let last = left.len() - 1;
    left.swap(pick, last);
    Some(())
}

/// `q(X̄) ← body, ¬n1, …`: the answers of the body over the head extended
/// by every negated variable, kept when no negated atom's instantiation is
/// in the source, projected onto the head.
fn negated(nq: &NegatedQuery, source: &InstanceSource, steps: &mut u64) -> Option<Vec<Tuple>> {
    let positive = nq.positive();
    let mut head: Vec<VarId> = positive.head().to_vec();
    for v in nq.negation_variables() {
        if !head.contains(&v) {
            head.push(v);
        }
    }
    let extended = ConjunctiveQuery::from_parts(
        source.schema(),
        positive.head_name(),
        head.clone(),
        positive.atoms().to_vec(),
        positive.var_names().to_vec(),
    )
    .expect("extending a valid query's head with its own variables keeps it valid");
    let mut out = Vec::new();
    for candidate in evaluate(&extended, source, steps)? {
        let value_of =
            |v: VarId| candidate[head.iter().position(|&h| h == v).expect("a head variable")];
        let rejected = nq.negated().iter().any(|atom| {
            let fact: Tuple = atom
                .terms()
                .iter()
                .map(|t| match t {
                    Term::Var(v) => value_of(*v),
                    Term::Const(c) => *c,
                })
                .collect();
            source
                .instance()
                .full_extension(atom.relation())
                .contains(&fact)
        });
        if !rejected {
            out.push(Tuple::from_slice(&candidate[..positive.head().len()]));
        }
    }
    Some(out)
}

/// Renders one answer tuple the way the wire protocol does: a JSON array
/// of strings and integers.
pub fn tuple_json(tuple: &Tuple) -> String {
    let mut out = String::from("[");
    for (i, value) in tuple.values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match value.as_int() {
            Some(n) => {
                let _ = write!(out, "{n}");
            }
            None => toorjah::server::wire::push_json_string(
                &mut out,
                value.as_str().expect("a value is an integer or a string"),
            ),
        }
    }
    out.push(']');
    out
}

/// Splits a wire reply's `"answers":[…]` fragment into its tuples, sorted,
/// for comparison with [`tuple_json`] renderings of the expected answers.
pub fn split_answers(fragment: &str) -> Vec<String> {
    let inner = fragment
        .strip_prefix('[')
        .and_then(|f| f.strip_suffix(']'))
        .unwrap_or("");
    let mut tuples = Vec::new();
    let (mut depth, mut in_string, mut escaped, mut start) = (0usize, false, false, 0usize);
    for (i, c) in inner.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            ']' => {
                depth -= 1;
                if depth == 0 {
                    tuples.push(inner[start..=i].to_string());
                }
            }
            _ => {}
        }
    }
    tuples.sort();
    tuples
}

/// The expected answers rendered as sorted wire tuples.
pub fn expected_wire(answers: &[Tuple]) -> Vec<String> {
    let mut out: Vec<String> = answers.iter().map(tuple_json).collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use toorjah::catalog::{tuple, Instance, Schema};
    use toorjah::engine::{naive_evaluate, NaiveOptions};
    use toorjah::workload::{random_instance, random_query, random_schema, RandomParams};

    fn source() -> InstanceSource {
        let schema = Schema::parse("r1^io(A, B) r2^oo(A, B) r3^io(B, C)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("r1", vec![tuple!["a", "b1"], tuple!["a", "b2"]]),
                ("r2", vec![tuple!["a", "b9"]]),
                (
                    "r3",
                    vec![tuple!["b1", "c1"], tuple!["b2", "c2"], tuple!["b2", "c3"]],
                ),
            ],
        )
        .unwrap();
        InstanceSource::new(schema, db)
    }

    fn answers(text: &str) -> Vec<Tuple> {
        let source = source();
        let statement = Statement::parse(text, source.schema()).unwrap();
        expected(&statement, &source)
    }

    #[test]
    fn agrees_with_the_naive_algorithm_on_random_queries() {
        let params = RandomParams::small();
        let mut rng = StdRng::seed_from_u64(5);
        let mut compared = 0;
        for _ in 0..40 {
            let generated = random_schema(&mut rng, &params);
            let instance = random_instance(&mut rng, &generated, &params);
            let source = InstanceSource::new(generated.schema.clone(), instance);
            for _ in 0..10 {
                let Some(q) = random_query(&mut rng, &generated, &params) else {
                    continue;
                };
                let naive = naive_evaluate(&q, source.schema(), &source, NaiveOptions::default())
                    .expect("small random queries stay within the access budget");
                assert_eq!(
                    expected(&Statement::Cq(q.clone()), &source),
                    canonical(naive.answers),
                    "{}",
                    q.display(source.schema())
                );
                assert_eq!(
                    naive_accesses(&q, &source),
                    naive.stats.total_accesses as u64
                );
                compared += 1;
            }
        }
        assert!(compared > 300, "{compared}");
    }

    #[test]
    fn the_step_budget_bounds_the_join() {
        let source = source();
        let statement = Statement::parse("q(C) <- r1('a', B), r3(B, C)", source.schema()).unwrap();
        assert!(expected_within(&statement, &source, 2).is_none());
        assert!(expected_within(&statement, &source, 100).is_some());
    }

    #[test]
    fn every_statement_kind_has_an_oracle() {
        assert_eq!(
            answers("q(C) <- r1('a', B), r3(B, C)"),
            vec![tuple!["c1"], tuple!["c2"], tuple!["c3"]]
        );
        assert_eq!(
            answers("q(B) <- r1('a', B) ; q(B) <- r2(A, B)"),
            vec![tuple!["b1"], tuple!["b2"], tuple!["b9"]]
        );
        // b2 has a c2 in r3, so `!r3(B, 'c2')` rejects it.
        assert_eq!(
            answers("q(B) <- r1('a', B), !r3(B, 'c2')"),
            vec![tuple!["b1"]]
        );
    }

    #[test]
    fn wire_answers_compare_as_sets() {
        let expected = expected_wire(&[tuple!["b", 2], tuple!["a]\"", 1]]);
        assert_eq!(split_answers(r#"[["b",2],["a]\"",1]]"#), expected);
        assert!(split_answers("[]").is_empty());
    }
}
