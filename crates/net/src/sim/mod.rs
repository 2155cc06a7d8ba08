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
//! Nothing is ever sorted. Timers armed in [`Node::on_start`] — a driver
//! that replays a request log arms one per request there — go, as they
//! are armed, into one FIFO slot per due time of compact `(seq, node,
//! payload)` entries. Sends, crash/recover transitions, start timers due
//! past a bound that keeps the slot table no larger than the timers it
//! holds, and every event scheduled after the first step go into a
//! calendar: one FIFO bucket per pending time, kept in time order. `seq`
//! rises with every push, so every slot and bucket is already in `(at,
//! seq)` order, and each is dropped with its storage once it drains;
//! event times are small integers (link costs, timer delays), so few
//! buckets are pending at once and a step pops in O(1). Each step takes
//! the smaller `(at, seq)` of the two heads, so the dispatch order is
//! exactly the one a single binary heap over every event would give.
//!
//! A callback's [`Context::send`] and [`Context::set_timer`] push straight
//! into the queue; a send is charged and given its fault verdict at the
//! call.
//!
//! Two consumers live elsewhere in the workspace:
//!
//! * `drp-algo` runs the paper's *distributed* SRA (leader, token passing,
//!   replication broadcasts) on top of it;
//! * `drp-serve`'s epoch engine serves each epoch's admitted requests,
//!   with read failover, write queueing and live migration. On a clean
//!   epoch (no faults, no migration) its measured NTC equals the analytic
//!   Eq. 4 value.
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
pub use message::Message;
pub use stats::TrafficStats;
