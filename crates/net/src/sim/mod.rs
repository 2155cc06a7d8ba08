//! Deterministic discrete-event message simulator.
//!
//! The simulator models the network as the validated [`CostMatrix`]: sending
//! a message of `size` data units from `i` to `j` takes `C(i, j)` time units
//! (cost doubles as latency, as in hop-count models) and adds
//! `size · C(i, j)` to the accounted network transfer cost — exactly the NTC
//! currency of the paper's cost model. Control messages are sent with size 0
//! and therefore cost nothing, matching the paper's assumption that control
//! traffic has a minor impact.
//!
//! One handler implementing [`Node`] is the behaviour of every site: the
//! simulator calls it for whichever site an event belongs to, and
//! [`Context::node_id`] tells it which. Sites exchange an
//! application-defined payload type, and [`Simulator::into_handler`] hands
//! the handler's state back once the run is over. Execution is
//! deterministic: ties in delivery time are broken by send order.
//!
//! # Event queue
//!
//! Events dispatch in `(at, seq)` order: earliest time first, and on equal
//! times in the order they were scheduled (`seq` counts every push).
//! Nothing is ever sorted. A caller that replays a request log hands it
//! over as one [`Arrival`] stream in `(at, site)` order
//! ([`Simulator::set_arrivals`]), popped through a cursor; each site's
//! arrivals order by one `seq` taken just before its [`Node::on_start`].
//! Everything else — sends, timers, crash/recover transitions — goes into
//! a calendar: one FIFO bucket per pending time, kept in time order and
//! dropped with its storage once it drains. Event times are small
//! integers (link costs, timer delays), so few buckets are pending at
//! once and a pop is O(1). Each step takes the smaller `(at, seq)` of
//! the two heads, so the dispatch order is exactly the one a single
//! binary heap over one timer per arrival would give.
//!
//! A callback's [`Context::send`] and [`Context::set_timer`] push straight
//! into the queue; a send is charged and given its fault verdict at the
//! call.
//!
//! Two consumers live elsewhere in the workspace:
//!
//! * `drp-algo` runs the paper's *distributed* SRA (leader, token passing,
//!   replication broadcasts) on top of it;
//! * `drp-serve`'s epoch engine serves each epoch's admitted request
//!   stream, with read failover, write queueing and live migration. On a
//!   clean epoch (no faults, no migration) its measured NTC equals the
//!   analytic Eq. 4 value.
//!
//! [`CostMatrix`]: crate::CostMatrix
//!
//! # Examples
//!
//! A two-site ping-pong that accounts one data unit each way:
//!
//! ```
//! use drp_net::{CostMatrix, sim::{Context, Message, Node, Simulator}};
//!
//! /// Site 0 pings site 1, which answers once; site 0 counts the pongs.
//! struct PingPong {
//!     pongs: u32,
//! }
//!
//! impl Node<u32> for PingPong {
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
//!         if ctx.node_id() == 0 {
//!             ctx.send(1, 1, 0);
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, u32>, msg: Message<u32>) {
//!         if ctx.node_id() == 1 {
//!             ctx.send(msg.src, 1, msg.payload + 1);
//!         } else {
//!             self.pongs += 1;
//!         }
//!     }
//! }
//!
//! let costs = CostMatrix::from_rows(2, vec![0, 3, 3, 0])?;
//! let mut sim = Simulator::new(&costs, PingPong { pongs: 0 });
//! sim.run_to_completion()?;
//! assert_eq!(sim.stats().transfer_cost, 2 * 3); // one unit × C=3, both ways
//! assert_eq!(sim.into_handler().pongs, 1);
//! # Ok::<(), drp_net::NetError>(())
//! ```

//! # Fault injection
//!
//! A seeded [`FaultPlan`] can be armed via
//! [`Simulator::set_fault_plan`] to crash sites and drop or delay
//! messages — all deterministically. A crashed site silently loses its
//! arrivals and timers; the handler may query the liveness oracle
//! [`Context::is_up`], on which `drp-serve`'s epoch engine builds its read
//! failover and write queueing.

mod engine;
mod error;
mod event;
mod fault;
mod message;
mod stats;

pub use engine::{Context, Node, Simulator};
pub use error::SimError;
pub use event::Time;
pub use fault::{CrashWindow, FaultPlan, FaultStats};
pub use message::{Arrival, Message};
pub use stats::TrafficStats;
