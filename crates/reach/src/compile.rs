//! Name resolution and quantifier expansion.
//!
//! Compilation turns the textual AST into a tree over dense [`PlaceId`] /
//! [`TransitionId`] atoms, expanding quantifiers against the net's name
//! tables, so that evaluation per marking is a fast tree walk with no string
//! handling.

use crate::ast::{Expr, NameRef, SetKind};
use crate::glob::glob_match;
use crate::ReachError;
use rap_petri::{Marking, PetriNet, PlaceId, TransitionId};
use std::collections::HashMap;

/// A predicate resolved against a concrete net; evaluate with
/// [`CompiledPredicate::eval`].
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    root: Node,
}

#[derive(Debug, Clone)]
enum Node {
    Const(bool),
    Marked(PlaceId),
    Enabled(TransitionId),
    Not(Box<Node>),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Xor(Box<Node>, Box<Node>),
}

impl CompiledPredicate {
    /// Evaluates the predicate in `marking`.
    ///
    /// `net` is needed for `enabled(..)` atoms; it must be the same net the
    /// predicate was compiled against.
    #[must_use]
    pub fn eval(&self, net: &PetriNet, marking: &Marking) -> bool {
        eval_node(&self.root, net, marking)
    }
}

fn eval_node(n: &Node, net: &PetriNet, m: &Marking) -> bool {
    match n {
        Node::Const(b) => *b,
        Node::Marked(p) => m.is_marked(*p),
        Node::Enabled(t) => net.is_enabled(*t, m),
        Node::Not(e) => !eval_node(e, net, m),
        Node::And(a, b) => eval_node(a, net, m) && eval_node(b, net, m),
        Node::Or(a, b) => eval_node(a, net, m) || eval_node(b, net, m),
        Node::Xor(a, b) => eval_node(a, net, m) ^ eval_node(b, net, m),
    }
}

/// The value a quantifier variable is currently bound to.
#[derive(Clone, Copy)]
enum Binding {
    Place(PlaceId),
    Transition(TransitionId),
}

pub(crate) fn compile(expr: &Expr, net: &PetriNet) -> Result<CompiledPredicate, ReachError> {
    let mut env = HashMap::new();
    let root = lower(expr, net, &mut env)?;
    Ok(CompiledPredicate { root })
}

fn lower(
    expr: &Expr,
    net: &PetriNet,
    env: &mut HashMap<String, Binding>,
) -> Result<Node, ReachError> {
    Ok(match expr {
        Expr::Const(b) => Node::Const(*b),
        Expr::Marked(name) => Node::Marked(resolve_place(name, net, env)?),
        Expr::Enabled(name) => Node::Enabled(resolve_transition(name, net, env)?),
        Expr::Not(e) => Node::Not(Box::new(lower(e, net, env)?)),
        Expr::And(a, b) => Node::And(Box::new(lower(a, net, env)?), Box::new(lower(b, net, env)?)),
        Expr::Or(a, b) => Node::Or(Box::new(lower(a, net, env)?), Box::new(lower(b, net, env)?)),
        Expr::Xor(a, b) => Node::Xor(Box::new(lower(a, net, env)?), Box::new(lower(b, net, env)?)),
        Expr::Imp(a, b) => Node::Or(
            Box::new(Node::Not(Box::new(lower(a, net, env)?))),
            Box::new(lower(b, net, env)?),
        ),
        Expr::Iff(a, b) => Node::Not(Box::new(Node::Xor(
            Box::new(lower(a, net, env)?),
            Box::new(lower(b, net, env)?),
        ))),
        Expr::Forall {
            var,
            set,
            pattern,
            body,
        } => expand_quantifier(net, env, var, *set, pattern, body, true)?,
        Expr::Exists {
            var,
            set,
            pattern,
            body,
        } => expand_quantifier(net, env, var, *set, pattern, body, false)?,
    })
}

#[allow(clippy::too_many_arguments)]
fn expand_quantifier(
    net: &PetriNet,
    env: &mut HashMap<String, Binding>,
    var: &str,
    set: SetKind,
    pattern: &str,
    body: &Expr,
    conjunctive: bool,
) -> Result<Node, ReachError> {
    let bindings: Vec<Binding> = match set {
        SetKind::Places => net
            .places()
            .filter(|&p| glob_match(pattern, &net.place(p).name))
            .map(Binding::Place)
            .collect(),
        SetKind::Transitions => net
            .transitions()
            .filter(|&t| glob_match(pattern, &net.transition(t).name))
            .map(Binding::Transition)
            .collect(),
    };
    // Empty range: forall over nothing is true, exists is false.
    let mut acc = Node::Const(conjunctive);
    let shadowed = env.get(var).copied();
    let mut first = true;
    for b in bindings {
        env.insert(var.to_string(), b);
        let lowered = lower(body, net, env)?;
        acc = if first {
            first = false;
            lowered
        } else if conjunctive {
            Node::And(Box::new(acc), Box::new(lowered))
        } else {
            Node::Or(Box::new(acc), Box::new(lowered))
        };
    }
    match shadowed {
        Some(b) => {
            env.insert(var.to_string(), b);
        }
        None => {
            env.remove(var);
        }
    }
    Ok(acc)
}

fn resolve_place(
    name: &NameRef,
    net: &PetriNet,
    env: &HashMap<String, Binding>,
) -> Result<PlaceId, ReachError> {
    match name {
        NameRef::Literal(s) => net.place_by_name(s).ok_or_else(|| ReachError::UnknownName {
            name: s.clone(),
            kind: "place",
        }),
        NameRef::Var(v) => match env.get(v) {
            Some(Binding::Place(p)) => Ok(*p),
            Some(Binding::Transition(_)) => Err(ReachError::KindMismatch { var: v.clone() }),
            None => Err(ReachError::UnboundVariable { var: v.clone() }),
        },
    }
}

fn resolve_transition(
    name: &NameRef,
    net: &PetriNet,
    env: &HashMap<String, Binding>,
) -> Result<TransitionId, ReachError> {
    match name {
        NameRef::Literal(s) => net
            .transition_by_name(s)
            .ok_or_else(|| ReachError::UnknownName {
                name: s.clone(),
                kind: "transition",
            }),
        NameRef::Var(v) => match env.get(v) {
            Some(Binding::Transition(t)) => Ok(*t),
            Some(Binding::Place(_)) => Err(ReachError::KindMismatch { var: v.clone() }),
            None => Err(ReachError::UnboundVariable { var: v.clone() }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Predicate;

    fn demo_net() -> PetriNet {
        let mut net = PetriNet::new();
        let a = net.add_place("Mt_a_1", true);
        net.add_place("Mt_b_1", false);
        net.add_place("Mf_a_1", false);
        let t = net.add_transition("go");
        net.read(t, a);
        net
    }

    fn eval(src: &str, net: &PetriNet) -> bool {
        let pred = Predicate::parse(src).unwrap();
        pred.compile(net).unwrap().eval(net, &net.initial_marking())
    }

    #[test]
    fn literals_and_operators() {
        let net = demo_net();
        assert!(eval(r#"marked("Mt_a_1")"#, &net));
        assert!(!eval(r#"marked("Mt_b_1")"#, &net));
        assert!(eval(r#"marked("Mt_a_1") & !marked("Mt_b_1")"#, &net));
        assert!(eval(r#"marked("Mt_b_1") | true"#, &net));
        assert!(eval(r#"marked("Mt_a_1") ^ marked("Mt_b_1")"#, &net));
        assert!(eval(r#"marked("Mt_b_1") -> false"#, &net));
        assert!(eval(r#"marked("Mt_a_1") <-> true"#, &net));
    }

    #[test]
    fn enabled_atom() {
        let net = demo_net();
        assert!(eval(r#"enabled("go")"#, &net));
    }

    #[test]
    fn forall_expands_over_glob() {
        let net = demo_net();
        // Mt_a_1 is marked, Mt_b_1 is not => forall is false, exists is true
        assert!(!eval(r#"forall p in places("Mt_*"): marked(p)"#, &net));
        assert!(eval(r#"exists p in places("Mt_*"): marked(p)"#, &net));
        // empty range
        assert!(eval(r#"forall p in places("ZZZ*"): marked(p)"#, &net));
        assert!(!eval(r#"exists p in places("ZZZ*"): marked(p)"#, &net));
    }

    #[test]
    fn nested_quantifiers_shadow() {
        let net = demo_net();
        // inner p shadows outer p; expression is well-formed and evaluates
        let src =
            r#"exists p in places("Mt_a_1"): (marked(p) & forall p in places("Mf_*"): !marked(p))"#;
        assert!(eval(src, &net));
    }

    #[test]
    fn unknown_names_error() {
        let net = demo_net();
        let pred = Predicate::parse(r#"marked("nope")"#).unwrap();
        assert_eq!(
            pred.compile(&net).unwrap_err(),
            ReachError::UnknownName {
                name: "nope".into(),
                kind: "place"
            }
        );
        let pred = Predicate::parse(r#"enabled("nope")"#).unwrap();
        assert!(matches!(
            pred.compile(&net).unwrap_err(),
            ReachError::UnknownName { .. }
        ));
    }

    #[test]
    fn kind_mismatch_and_unbound() {
        let net = demo_net();
        let pred = Predicate::parse(r#"forall t in transitions("*"): marked(t)"#).unwrap();
        assert!(matches!(
            pred.compile(&net).unwrap_err(),
            ReachError::KindMismatch { .. }
        ));
        let pred = Predicate::parse(r#"marked(q)"#).unwrap();
        assert!(matches!(
            pred.compile(&net).unwrap_err(),
            ReachError::UnboundVariable { .. }
        ));
    }

    #[test]
    fn witness_search_finds_shortest() {
        use rap_petri::engine::EngineConfig;
        use rap_petri::reachability::explore;
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let b = net.add_place("b", false);
        let c = net.add_place("c", false);
        let t1 = net.add_transition("t1");
        net.consume(t1, a);
        net.produce(t1, b);
        let t2 = net.add_transition("t2");
        net.consume(t2, b);
        net.produce(t2, c);
        let space = explore(&net, &EngineConfig::default(), None);
        let pred = Predicate::parse(r#"marked("c")"#)
            .unwrap()
            .compile(&net)
            .unwrap();
        let w = crate::find_witness(&net, &space, &pred).unwrap();
        assert_eq!(w.trace, vec![t1, t2]);
    }
}
