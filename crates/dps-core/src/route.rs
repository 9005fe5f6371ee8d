//! Routing functions: which thread instance of a collection executes a
//! data object's next operation.
//!
//! Paper §2: "A user-defined routing function specifies at runtime to which
//! instance of the thread in the thread collection a data object is
//! directed in order to execute its next operation." A routing function is
//! attached to the *destination* node of the flow graph, mirroring
//! `FlowgraphNode<ToUpperCase, RoundRobinRoute>(computeThreads)`.

use std::marker::PhantomData;

use crate::error::{DpsError, Result};
use crate::token::Token;

/// Facts available to a routing decision.
#[derive(Debug, Clone, Copy)]
pub struct RouteInfo<'a> {
    /// Number of threads in the destination collection — the paper's
    /// `threadCount()`.
    pub thread_count: usize,
    /// Per-thread load of the destination collection (tokens queued or in
    /// execution), for load-balancing routes. `None` if the engine does not
    /// track it.
    pub load: Option<&'a [u32]>,
}

/// A routing function for tokens of type `T`.
///
/// Routes may be stateful (`&mut self`): a round-robin route keeps a
/// counter. One route instance exists per graph node, so on a threaded
/// engine a stateful route serializes concurrent deliveries to its node
/// behind a lock. Routes that decide from the token and [`RouteInfo`]
/// alone should declare [`STATELESS`](Self::STATELESS) and implement
/// [`route_stateless`](Self::route_stateless): engines then share one
/// instance across delivery threads with no per-delivery lock.
pub trait Route<T: Token>: Send + Sync + 'static {
    /// Return the destination thread index, in `0..info.thread_count`.
    fn route(&mut self, token: &T, info: &RouteInfo<'_>) -> usize;

    /// Declares that this route never mutates state:
    /// [`route_stateless`](Self::route_stateless) is implemented and
    /// agrees with [`route`](Self::route) for every input. Engines use the
    /// declaration to skip the per-delivery route lock.
    const STATELESS: bool = false;

    /// Lock-free routing decision for [`STATELESS`](Self::STATELESS)
    /// routes; engines never call it otherwise.
    fn route_stateless(&self, token: &T, info: &RouteInfo<'_>) -> usize {
        let _ = (token, info);
        unimplemented!("route_stateless on a stateful route")
    }
}

/// Declare a routing function from an expression over `token` — the Rust
/// equivalent of the paper's `ROUTE(name, thread, token, expr)` macro:
///
/// ```
/// use dps_core::{dps_token, route};
///
/// dps_token! {
///     pub struct CharToken { pub chr: u8, pub pos: u32 }
/// }
///
/// // ROUTE(RoundRobinRoute, ComputeThread, CharToken,
/// //       currentToken->pos % threadCount());
/// route!(pub PosModRoute for CharToken =
///     |token, info| token.pos as usize % info.thread_count);
/// ```
#[macro_export]
macro_rules! route {
    ($(#[$meta:meta])* pub $name:ident for $tok:ty = |$token:ident, $info:ident| $expr:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name;
        impl $crate::Route<$tok> for $name {
            // A routing expression reads only the token and the route info,
            // so macro routes take the engines' lock-free delivery path.
            const STATELESS: bool = true;
            fn route(&mut self, token: &$tok, info: &$crate::RouteInfo<'_>) -> usize {
                $crate::Route::route_stateless(self, token, info)
            }
            fn route_stateless(&self, $token: &$tok, $info: &$crate::RouteInfo<'_>) -> usize {
                $expr
            }
        }
    };
}

/// Round-robin over the destination collection, ignoring token contents.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Start at thread 0.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The next thread in turn, stepping past those the load snapshot marks
/// dead (`u32::MAX`, as every engine reports a thread on a killed node) —
/// at most once round the collection, so a delivery finds a live thread
/// whenever one exists, whoever else advanced the turn in between.
impl<T: Token> Route<T> for RoundRobin {
    fn route(&mut self, _token: &T, info: &RouteInfo<'_>) -> usize {
        let n = info.thread_count;
        let start = self.next % n;
        let live = |i: &usize| info.load.is_none_or(|load| load.get(*i) != Some(&u32::MAX));
        let i = (start..start + n)
            .map(|i| i % n)
            .find(live)
            .unwrap_or(start);
        self.next = (i + 1) % n;
        i
    }
}

/// Route every token to a fixed thread index (e.g. the single main thread).
#[derive(Debug, Clone, Copy)]
pub struct ToThread(pub usize);

impl ToThread {
    /// Route to thread 0 — the usual master-thread route.
    pub fn zero() -> Self {
        ToThread(0)
    }
}

impl<T: Token> Route<T> for ToThread {
    const STATELESS: bool = true;

    fn route(&mut self, _token: &T, _info: &RouteInfo<'_>) -> usize {
        self.0
    }

    fn route_stateless(&self, _token: &T, _info: &RouteInfo<'_>) -> usize {
        self.0
    }
}

/// Route by a key extracted from the token, modulo the thread count.
/// The workhorse for data-parallel distributions ("column `j` of the matrix
/// lives on thread `j % p`"). The key function is pure (`Fn`), so the route
/// is stateless and engines deliver through it without a per-token lock.
pub struct ByKey<T, F> {
    f: F,
    _m: PhantomData<fn(T)>,
}

impl<T: Token, F: Fn(&T) -> usize + Send + Sync + 'static> ByKey<T, F> {
    /// Route to `f(token) % thread_count`.
    pub fn new(f: F) -> Self {
        Self { f, _m: PhantomData }
    }
}

impl<T: Token, F: Fn(&T) -> usize + Send + Sync + 'static> Route<T> for ByKey<T, F> {
    const STATELESS: bool = true;

    fn route(&mut self, token: &T, info: &RouteInfo<'_>) -> usize {
        self.route_stateless(token, info)
    }

    fn route_stateless(&self, token: &T, info: &RouteInfo<'_>) -> usize {
        (self.f)(token) % info.thread_count
    }
}

/// Load-balancing route: pick the least-loaded destination thread
/// (ties go to the lowest index). Implements the paper's feedback-based
/// balancing — "the routing function sends data objects to those processing
/// nodes which have previously posted data objects to the merge operation"
/// — using the engine's per-thread outstanding-token counts as the feedback
/// signal. Falls back to round-robin when the engine provides no load data.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded {
    fallback: RoundRobin,
}

impl LeastLoaded {
    /// New balancing route.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T: Token> Route<T> for LeastLoaded {
    fn route(&mut self, token: &T, info: &RouteInfo<'_>) -> usize {
        match info.load {
            Some(load) => {
                debug_assert_eq!(load.len(), info.thread_count);
                load.iter()
                    .enumerate()
                    .min_by_key(|&(i, &l)| (l, i))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }
            None => Route::<T>::route(&mut self.fallback, token, info),
        }
    }
}

// ---------------------------------------------------------------------------
// Type-erased adapter used by the engines.
// ---------------------------------------------------------------------------

/// Type-erased route driven by an engine.
#[doc(hidden)]
pub trait DynRoute: Send + Sync {
    fn route_dyn(
        &mut self,
        token: &dyn Token,
        info: &RouteInfo<'_>,
        node_name: &str,
    ) -> Result<usize>;

    /// Whether [`route_dyn_shared`](Self::route_dyn_shared) may be used
    /// instead of [`route_dyn`](Self::route_dyn) (the underlying route
    /// declared [`Route::STATELESS`]) — engines then skip the per-delivery
    /// route lock entirely.
    fn is_stateless(&self) -> bool;

    /// Lock-free routing through a shared reference; only valid when
    /// [`is_stateless`](Self::is_stateless) is true.
    fn route_dyn_shared(
        &self,
        token: &dyn Token,
        info: &RouteInfo<'_>,
        node_name: &str,
    ) -> Result<usize>;
}

pub(crate) struct RouteAdapter<T, R> {
    pub route: R,
    pub _m: PhantomData<fn(T)>,
}

fn downcast_token<'t, T: Token>(token: &'t dyn Token, node_name: &str) -> Result<&'t T> {
    token
        .as_any()
        .downcast_ref::<T>()
        .ok_or_else(|| DpsError::OperationContract {
            node: node_name.to_string(),
            reason: format!(
                "route expects {} but token is {}",
                std::any::type_name::<T>(),
                token.type_name()
            ),
        })
}

fn check_bounds(idx: usize, info: &RouteInfo<'_>, node_name: &str) -> Result<usize> {
    if idx >= info.thread_count {
        return Err(DpsError::RouteOutOfRange {
            node: node_name.to_string(),
            index: idx,
            thread_count: info.thread_count,
        });
    }
    Ok(idx)
}

impl<T: Token, R: Route<T>> DynRoute for RouteAdapter<T, R> {
    fn route_dyn(
        &mut self,
        token: &dyn Token,
        info: &RouteInfo<'_>,
        node_name: &str,
    ) -> Result<usize> {
        let tok = downcast_token::<T>(token, node_name)?;
        check_bounds(self.route.route(tok, info), info, node_name)
    }

    fn is_stateless(&self) -> bool {
        R::STATELESS
    }

    fn route_dyn_shared(
        &self,
        token: &dyn Token,
        info: &RouteInfo<'_>,
        node_name: &str,
    ) -> Result<usize> {
        debug_assert!(R::STATELESS, "shared routing on a stateful route");
        let tok = downcast_token::<T>(token, node_name)?;
        check_bounds(self.route.route_stateless(tok, info), info, node_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dps_token;

    dps_token! {
        pub struct K { pub k: u32 }
    }

    fn info(n: usize) -> RouteInfo<'static> {
        RouteInfo {
            thread_count: n,
            load: None,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = RoundRobin::new();
        let seq: Vec<usize> = (0..7)
            .map(|_| Route::<K>::route(&mut r, &K { k: 0 }, &info(3)))
            .collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    /// A thread the snapshot marks dead is stepped past, and the turn goes
    /// on after the one picked; with every thread dead, the turn is as
    /// without a snapshot.
    #[test]
    fn round_robin_steps_past_threads_the_snapshot_marks_dead() {
        let picks = |load: &[u32], n: usize| {
            let mut r = RoundRobin::new();
            let info = RouteInfo {
                thread_count: load.len(),
                load: Some(load),
            };
            (0..n)
                .map(|_| Route::<K>::route(&mut r, &K { k: 0 }, &info))
                .collect::<Vec<usize>>()
        };
        let dead = u32::MAX;
        assert_eq!(picks(&[0, dead, dead], 4), [0, 0, 0, 0]);
        assert_eq!(picks(&[5, dead, 2, dead], 5), [0, 2, 0, 2, 0]);
        assert_eq!(picks(&[dead, 7, 7], 4), [1, 2, 1, 2]);
        assert_eq!(picks(&[dead; 3], 4), [0, 1, 2, 0]);
    }

    #[test]
    fn to_thread_is_constant() {
        let mut r = ToThread(2);
        for _ in 0..3 {
            assert_eq!(Route::<K>::route(&mut r, &K { k: 9 }, &info(4)), 2);
        }
    }

    #[test]
    fn by_key_mods_thread_count() {
        let mut r = ByKey::new(|t: &K| t.k as usize);
        assert_eq!(r.route(&K { k: 7 }, &info(4)), 3);
        assert_eq!(r.route(&K { k: 8 }, &info(4)), 0);
    }

    #[test]
    fn least_loaded_picks_minimum() {
        let mut r = LeastLoaded::new();
        let load = [3u32, 1, 1, 2];
        let i = Route::<K>::route(
            &mut r,
            &K { k: 0 },
            &RouteInfo {
                thread_count: 4,
                load: Some(&load),
            },
        );
        assert_eq!(i, 1, "lowest index wins ties");
    }

    #[test]
    fn least_loaded_falls_back_to_round_robin() {
        let mut r = LeastLoaded::new();
        let a = Route::<K>::route(&mut r, &K { k: 0 }, &info(2));
        let b = Route::<K>::route(&mut r, &K { k: 0 }, &info(2));
        assert_eq!((a, b), (0, 1));
    }

    #[test]
    fn route_macro_generates_working_route() {
        route!(pub ModRoute for K = |token, info| token.k as usize % info.thread_count);
        let mut r = ModRoute;
        assert_eq!(r.route(&K { k: 5 }, &info(3)), 2);
    }

    #[test]
    fn stateless_declarations_match_the_stateful_path() {
        route!(pub ModRoute2 for K = |token, info| token.k as usize % info.thread_count);
        // Probe the declarations through the type-erased adapters (the
        // engines' view), avoiding compile-time-constant assertions.
        fn declared<R: Route<K>>(route: R) -> bool {
            RouteAdapter {
                route,
                _m: PhantomData::<fn(K)>,
            }
            .is_stateless()
        }
        assert!(declared(ModRoute2));
        assert!(declared(ToThread(0)));
        assert!(!declared(RoundRobin::new()));
        assert!(!declared(LeastLoaded::new()));
        let tok = K { k: 7 };
        let i = info(4);
        let mut by_key = ByKey::new(|t: &K| t.k as usize);
        assert_eq!(by_key.route(&tok, &i), by_key.route_stateless(&tok, &i));
        let mut to = ToThread(2);
        assert_eq!(
            Route::<K>::route(&mut to, &tok, &i),
            to.route_stateless(&tok, &i)
        );
    }

    #[test]
    fn adapter_exposes_the_shared_path_for_stateless_routes() {
        let stateless = RouteAdapter {
            route: ByKey::new(|t: &K| t.k as usize),
            _m: PhantomData::<fn(K)>,
        };
        assert!(stateless.is_stateless());
        let tok = K { k: 7 };
        assert_eq!(stateless.route_dyn_shared(&tok, &info(4), "n").unwrap(), 3);
        let stateful = RouteAdapter {
            route: RoundRobin::new(),
            _m: PhantomData::<fn(K)>,
        };
        assert!(!stateful.is_stateless());
    }

    #[test]
    fn adapter_checks_bounds() {
        let mut ad = RouteAdapter {
            route: ToThread(9),
            _m: PhantomData::<fn(K)>,
        };
        let tok = K { k: 1 };
        let err = ad.route_dyn(&tok, &info(3), "n").unwrap_err();
        assert!(matches!(err, DpsError::RouteOutOfRange { index: 9, .. }));
    }

    #[test]
    fn adapter_checks_type() {
        dps_token! { pub struct Other { pub z: u8 } }
        let mut ad = RouteAdapter {
            route: RoundRobin::new(),
            _m: PhantomData::<fn(K)>,
        };
        let tok = Other { z: 0 };
        assert!(ad.route_dyn(&tok, &info(3), "n").is_err());
    }
}
