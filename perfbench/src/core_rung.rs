//! The bottom rung: the workload's queries answered by direct engine
//! calls (`KnowledgeEngine`, `IncrementalEngine`, `StreamDriver`), with
//! the same per-session sharing the service's sessions use — one message
//! index, one `GB(r)` and an LRU observer cache of the session's bound.

use std::time::{Duration, Instant};

use zigzag_api::{CoordReport, Error, FastRunReport, Query, Response, WitnessReport};
use zigzag_bcm::{NodeId, Run};
use zigzag_coord::StreamDriver;
use zigzag_core::bounds_graph::BoundsGraph;
use zigzag_core::extended_graph::MessageIndex;
use zigzag_core::{KnowledgeEngine, ObserverCache, ObserverState};

/// The engine surface a query needs.
pub trait CoreBackend {
    fn engine(&mut self, sigma: NodeId) -> Result<KnowledgeEngine<'_>, Error>;
    fn tight_bound(&mut self, from: NodeId, to: NodeId) -> Result<Option<i64>, Error>;
    fn coord(&self) -> Result<CoordReport, Error>;
}

/// Answers `q` through direct engine calls, shaping the result as the
/// facade's `Response` so it can be checked against the reference.
pub fn answer<B: CoreBackend>(b: &mut B, q: &Query) -> Result<Response, Error> {
    Ok(match q {
        Query::MaxX {
            sigma,
            theta1,
            theta2,
        } => Response::MaxX(b.engine(*sigma)?.max_x(theta1, theta2)?),
        Query::Knows {
            sigma,
            theta1,
            theta2,
            x,
        } => Response::Knows(b.engine(*sigma)?.knows(theta1, theta2, *x)?),
        Query::Witness {
            sigma,
            theta1,
            theta2,
        } => Response::Witness(
            b.engine(*sigma)?
                .witness(theta1, theta2)?
                .map(|(weight, vz)| WitnessReport {
                    weight,
                    pattern: vz.to_string(),
                }),
        ),
        Query::MaxXMatrix { sigma } => {
            Response::MaxXMatrix(b.engine(*sigma)?.max_x_basic_matrix()?)
        }
        Query::TightBound { from, to } => Response::TightBound(b.tight_bound(*from, *to)?),
        Query::FastRun {
            sigma,
            theta,
            gamma,
            extra_horizon,
        } => {
            let fr = b
                .engine(*sigma)?
                .fast_run_of(theta, *gamma, *extra_horizon)?;
            Response::FastRun(FastRunReport {
                sigma: fr.sigma,
                gamma: fr.gamma,
                theta_time: fr.theta_time,
                run: fr.run,
            })
        }
        Query::CoordDecision => Response::CoordDecision(b.coord()?),
        other => panic!("the workloads send no {other:?} to the core rung"),
    })
}

/// A batch run answered by direct engine calls, with build times of
/// cache misses recorded.
#[derive(Debug)]
pub struct CoreBatch {
    run: Run,
    messages: MessageIndex,
    gb: BoundsGraph,
    cache: ObserverCache,
    pub builds: Vec<Duration>,
}

impl CoreBatch {
    pub fn new(run: Run, cap: Option<usize>) -> Self {
        CoreBatch {
            messages: MessageIndex::of_run(&run),
            gb: BoundsGraph::of_run(&run),
            run,
            cache: ObserverCache::new(cap),
            builds: Vec::new(),
        }
    }

    pub fn misses(&self) -> u64 {
        self.cache.misses()
    }
}

impl CoreBackend for CoreBatch {
    fn engine(&mut self, sigma: NodeId) -> Result<KnowledgeEngine<'_>, Error> {
        let CoreBatch {
            run,
            messages,
            cache,
            builds,
            ..
        } = self;
        let state = cache.get_or_build(sigma, || {
            let t0 = Instant::now();
            let state = ObserverState::build(run, sigma, messages);
            builds.push(t0.elapsed());
            state
        })?;
        Ok(KnowledgeEngine::with_state(&self.run, state))
    }

    fn tight_bound(&mut self, from: NodeId, to: NodeId) -> Result<Option<i64>, Error> {
        let lp = self.gb.longest_from_cached(from)?;
        Ok(self.gb.graph().index_of(&to).and_then(|i| lp.weight(i)))
    }

    fn coord(&self) -> Result<CoordReport, Error> {
        Err(Error::NoSpec)
    }
}

impl CoreBackend for StreamDriver {
    fn engine(&mut self, sigma: NodeId) -> Result<KnowledgeEngine<'_>, Error> {
        Ok(StreamDriver::engine(self).engine(sigma)?)
    }

    fn tight_bound(&mut self, from: NodeId, to: NodeId) -> Result<Option<i64>, Error> {
        Ok(StreamDriver::engine(self).tight_bound(from, to)?)
    }

    fn coord(&self) -> Result<CoordReport, Error> {
        Ok(CoordReport {
            first_known: self.first_known(),
            sigma_c: self.sigma_c(),
        })
    }
}
