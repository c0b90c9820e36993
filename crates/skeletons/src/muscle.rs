//! Muscles: the sequential blocks that give a skeleton its business logic.
//!
//! The paper (following Skandium) distinguishes four flavours:
//!
//! | flavour   | signature        | used by                      |
//! |-----------|------------------|------------------------------|
//! | Execute   | `fe: P → R`      | `seq`                        |
//! | Split     | `fs: P → {R}`    | `map`, `fork`, `d&C`         |
//! | Merge     | `fm: {P} → R`    | `map`, `fork`, `d&C`         |
//! | Condition | `fc: P → bool`   | `while`, `if`, `d&C`         |
//!
//! The typed traits ([`Execute`], [`Split`], [`Merge`], [`Condition`]) are
//! what users implement — every `Fn` closure of the right shape implements
//! them automatically. The erased wrappers ([`ExecuteFn`] …) are what the
//! runtime representation stores: they operate on [`Data`]
//! (`Box<dyn Any + Send>`) so that heterogeneously-typed skeletons can nest
//! inside one AST. The typed constructors in [`crate::skel`] build the
//! erased closures, so a downcast failure is unreachable through the public
//! API; it panics with a descriptive message if someone hand-assembles an
//! ill-typed [`Node`](crate::node::Node).

use std::any::{Any, TypeId};
use std::sync::Arc;

/// A type-erased value flowing through a skeleton at runtime.
pub type Data = Box<dyn Any + Send>;

/// Execution muscle: wraps the sequential business logic, `fe: P → R`.
pub trait Execute<P, R>: Send + Sync + 'static {
    /// Computes the result for one problem.
    fn execute(&self, p: P) -> R;
}

impl<P, R, F> Execute<P, R> for F
where
    F: Fn(P) -> R + Send + Sync + 'static,
{
    fn execute(&self, p: P) -> R {
        self(p)
    }
}

/// Split muscle: divides a problem into sub-problems, `fs: P → {R}`.
pub trait Split<P, R>: Send + Sync + 'static {
    /// Produces the sub-problem list; its length is the muscle's
    /// *cardinality* (the paper's `|fs|`).
    fn split(&self, p: P) -> Vec<R>;
}

impl<P, R, F> Split<P, R> for F
where
    F: Fn(P) -> Vec<R> + Send + Sync + 'static,
{
    fn split(&self, p: P) -> Vec<R> {
        self(p)
    }
}

/// Merge muscle: combines sub-results, `fm: {P} → R`.
pub trait Merge<P, R>: Send + Sync + 'static {
    /// Combines the sub-results (in sub-problem order).
    fn merge(&self, parts: Vec<P>) -> R;
}

impl<P, R, F> Merge<P, R> for F
where
    F: Fn(Vec<P>) -> R + Send + Sync + 'static,
{
    fn merge(&self, parts: Vec<P>) -> R {
        self(parts)
    }
}

/// Condition muscle: `fc: P → bool`, driving `while`, `if` and `d&C`.
///
/// Takes the value by reference — the value continues into the chosen branch
/// afterwards.
pub trait Condition<P>: Send + Sync + 'static {
    /// Decides whether to iterate / take the then-branch / keep dividing.
    fn test(&self, p: &P) -> bool;
}

impl<P, F> Condition<P> for F
where
    F: Fn(&P) -> bool + Send + Sync + 'static,
{
    fn test(&self, p: &P) -> bool {
        self(p)
    }
}

/// `d`'s box, as the box of the `P` it holds.
fn downcast_box<P: Send + 'static>(d: Data, role: &str) -> Box<P> {
    match d.downcast::<P>() {
        Ok(b) => b,
        Err(_) => panic!(
            "skeleton type mismatch: {role} muscle expected `{}`",
            std::any::type_name::<P>()
        ),
    }
}

fn downcast<P: Send + 'static>(d: Data, role: &str) -> P {
    *downcast_box(d, role)
}

/// Whether a muscle's result can be written back into its input's box.
fn same_type<P: 'static, R: 'static>() -> bool {
    TypeId::of::<P>() == TypeId::of::<R>()
}

/// `r` as the type `P` it is (the caller checked [`same_type`]).
fn identity<R: 'static, P: 'static>(r: R) -> P {
    let mut r = Some(r);
    (&mut r as &mut dyn Any)
        .downcast_mut::<Option<P>>()
        .and_then(Option::take)
        .expect("muscle result type checked equal to its input type")
}

/// Type-erased Execute muscle stored in the runtime AST.
#[derive(Clone)]
pub struct ExecuteFn(Arc<dyn Fn(Data) -> Data + Send + Sync>);

impl ExecuteFn {
    /// Erases a typed Execute muscle. One whose input and result types
    /// are equal writes its result back into its input's box, so a call
    /// allocates nothing of its own.
    pub fn new<P, R>(f: impl Execute<P, R>) -> Self
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        if same_type::<P, R>() {
            return ExecuteFn(Arc::new(move |d| {
                let mut b = downcast_box::<P>(d, "execute");
                // Should `f` panic, the moved-out box is freed unread.
                *b = identity(f.execute(*b));
                b
            }));
        }
        ExecuteFn(Arc::new(move |d| {
            Box::new(f.execute(downcast::<P>(d, "execute")))
        }))
    }

    /// Runs the muscle on erased data.
    pub fn call(&self, d: Data) -> Data {
        (self.0)(d)
    }
}

/// Type-erased Split muscle stored in the runtime AST.
#[derive(Clone)]
pub struct SplitFn(Arc<dyn Fn(Data) -> Vec<Data> + Send + Sync>);

impl SplitFn {
    /// Erases a typed Split muscle.
    pub fn new<P, R>(f: impl Split<P, R>) -> Self
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        SplitFn(Arc::new(move |d| {
            f.split(downcast::<P>(d, "split"))
                .into_iter()
                .map(|r| Box::new(r) as Data)
                .collect()
        }))
    }

    /// Runs the muscle on erased data.
    pub fn call(&self, d: Data) -> Vec<Data> {
        (self.0)(d)
    }
}

/// Type-erased Merge muscle stored in the runtime AST.
///
/// The erased closure consumes `Vec<Option<Data>>` — the exact shape a
/// fan-out join accumulates results in — so an engine can hand its slot
/// vector over as-is instead of re-collecting it into a `Vec<Data>`
/// first ([`MergeFn::call_slots`]). `Option<Data>` has the same size as
/// `Data` (niche optimization), so the `Some` wrapper costs nothing.
#[derive(Clone)]
pub struct MergeFn(Arc<dyn Fn(Vec<Option<Data>>) -> Data + Send + Sync>);

impl MergeFn {
    /// Erases a typed Merge muscle. One whose part and result types are
    /// equal writes its result back into its first part's box.
    pub fn new<P, R>(f: impl Merge<P, R>) -> Self
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        let filled = |d: Option<Data>| d.expect("merge called with an unfilled result slot");
        if same_type::<P, R>() {
            return MergeFn(Arc::new(move |parts| {
                let mut parts = parts.into_iter().map(filled);
                let Some(first) = parts.next() else {
                    return Box::new(f.merge(Vec::new()));
                };
                let mut b = downcast_box::<P>(first, "merge");
                let rest = parts.map(|d| downcast::<P>(d, "merge"));
                *b = identity(f.merge(std::iter::once(*b).chain(rest).collect()));
                b
            }));
        }
        MergeFn(Arc::new(move |parts| {
            let typed: Vec<P> = parts
                .into_iter()
                .map(|d| downcast::<P>(filled(d), "merge"))
                .collect();
            Box::new(f.merge(typed))
        }))
    }

    /// Runs the muscle on erased data.
    pub fn call(&self, parts: Vec<Data>) -> Data {
        (self.0)(parts.into_iter().map(Some).collect())
    }

    /// Runs the muscle on a join's result-slot vector, in sub-problem
    /// order, without re-collecting it. Every slot must be filled;
    /// an unfilled slot is an engine bug and panics.
    pub fn call_slots(&self, parts: Vec<Option<Data>>) -> Data {
        (self.0)(parts)
    }
}

/// Type-erased Condition muscle stored in the runtime AST.
#[derive(Clone)]
pub struct CondFn(Arc<dyn Fn(&Data) -> bool + Send + Sync>);

impl CondFn {
    /// Erases a typed Condition muscle.
    pub fn new<P>(f: impl Condition<P>) -> Self
    where
        P: Send + 'static,
    {
        CondFn(Arc::new(move |d| {
            let p = d.downcast_ref::<P>().unwrap_or_else(|| {
                panic!(
                    "skeleton type mismatch: condition muscle expected `{}`",
                    std::any::type_name::<P>()
                )
            });
            f.test(p)
        }))
    }

    /// Runs the muscle on erased data (by reference; the value flows on).
    pub fn call(&self, d: &Data) -> bool {
        (self.0)(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_erasure_round_trips() {
        let fe = ExecuteFn::new(|x: i64| x * 2);
        let out = fe.call(Box::new(21i64));
        assert_eq!(*out.downcast::<i64>().unwrap(), 42);
    }

    #[test]
    fn split_erasure_preserves_order_and_card() {
        let fs = SplitFn::new(|v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>());
        let parts = fs.call(Box::new(vec![1i64, 2, 3]));
        assert_eq!(parts.len(), 3);
        let first = parts.into_iter().next().unwrap();
        assert_eq!(*first.downcast::<Vec<i64>>().unwrap(), vec![1]);
    }

    #[test]
    fn merge_erasure_collects_in_order() {
        let fm = MergeFn::new(|parts: Vec<i64>| parts.iter().sum::<i64>());
        let out = fm.call(vec![
            Box::new(1i64) as Data,
            Box::new(2i64),
            Box::new(39i64),
        ]);
        assert_eq!(*out.downcast::<i64>().unwrap(), 42);
    }

    #[test]
    fn condition_does_not_consume_value() {
        let fc = CondFn::new(|x: &i64| *x > 0);
        let d: Data = Box::new(5i64);
        assert!(fc.call(&d));
        assert!(fc.call(&d));
        assert_eq!(*d.downcast::<i64>().unwrap(), 5);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn execute_mismatch_panics_with_context() {
        let fe = ExecuteFn::new(|x: i64| x);
        let _ = fe.call(Box::new("not an i64"));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn condition_mismatch_panics_with_context() {
        let fc = CondFn::new(|x: &i64| *x > 0);
        let d: Data = Box::new(1.5f64);
        let _ = fc.call(&d);
    }

    #[test]
    fn struct_muscles_work_too() {
        struct Doubler;
        impl Execute<i64, i64> for Doubler {
            fn execute(&self, p: i64) -> i64 {
                p * 2
            }
        }
        let fe = ExecuteFn::new(Doubler);
        assert_eq!(*fe.call(Box::new(4i64)).downcast::<i64>().unwrap(), 8);
    }

    /// Where a box's value lives.
    fn address(d: &Data) -> *const () {
        &**d as *const (dyn Any + Send) as *const ()
    }

    #[test]
    fn a_same_typed_muscle_keeps_its_inputs_box() {
        let fe = ExecuteFn::new(|s: String| s + "!");
        let d: Data = Box::new(String::from("hi"));
        let before = address(&d);
        let out = fe.call(d);
        assert_eq!(address(&out), before, "the input's allocation");
        assert_eq!(*out.downcast::<String>().unwrap(), "hi!");

        let fm = MergeFn::new(|parts: Vec<i64>| parts.iter().sum::<i64>());
        let parts: Vec<Data> = vec![Box::new(1i64), Box::new(2i64), Box::new(39i64)];
        let first = address(&parts[0]);
        let out = fm.call(parts);
        assert_eq!(address(&out), first, "the first part's allocation");
        assert_eq!(*out.downcast::<i64>().unwrap(), 42);
        let none = MergeFn::new(|parts: Vec<i64>| parts.len() as i64);
        assert_eq!(*none.call(Vec::new()).downcast::<i64>().unwrap(), 0);
    }

    #[test]
    fn a_muscle_of_two_types_still_boxes_its_result() {
        let fe = ExecuteFn::new(|x: i64| x.to_string());
        assert_eq!(*fe.call(Box::new(7i64)).downcast::<String>().unwrap(), "7");
        let fm = MergeFn::new(|parts: Vec<i64>| parts.len());
        let out = fm.call(vec![Box::new(1i64) as Data, Box::new(2i64)]);
        assert_eq!(*out.downcast::<usize>().unwrap(), 2);
    }

    #[test]
    fn a_same_typed_muscle_that_panics_drops_its_input_once() {
        let fe = ExecuteFn::new(|s: String| {
            assert!(s != "x", "rejects x");
            s + "y"
        });
        let call = |s: &str| {
            let fe = std::panic::AssertUnwindSafe(&fe);
            std::panic::catch_unwind(move || fe.call(Box::new(String::from(s))))
        };
        assert!(call("x").is_err());
        // The erased muscle still serves the next call.
        let out = call("w").expect("no panic");
        assert_eq!(*out.downcast::<String>().unwrap(), "wy");
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn a_same_typed_muscle_still_checks_its_input_type() {
        let fe = ExecuteFn::new(|x: i64| x);
        let _ = fe.call(Box::new(1.5f64));
    }
}
