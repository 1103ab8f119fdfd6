use crate::{NodeId, SimTime, TimerId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What a scheduled event does when it fires.
#[derive(Debug, Clone)]
pub(crate) enum EventKind<M> {
    /// Deliver one protocol message from `from` to each node of `to`,
    /// in order: a *run* (see [`EventQueue`]). [`EventQueue::pop_due`]
    /// hands runs out one recipient at a time.
    Deliver {
        from: NodeId,
        msg: M,
        to: Recipients,
    },
    /// Fire a protocol timer on `node`.
    Timer { node: NodeId, id: TimerId, tag: u64 },
    /// A dormant node becomes alive and the protocol is notified.
    Join { node: NodeId },
    /// A node leaves; graceful leaves let the protocol run its departure
    /// handshake, abrupt leaves kill the node first.
    Leave { node: NodeId, graceful: bool },
    /// Random-waypoint arrival: pick the next destination.
    Waypoint { node: NodeId, epoch: u64 },
    /// Fault plane: kill a node abruptly (no departure handshake).
    Crash { node: NodeId },
    /// Fault plane: a crashed node rejoins as a fresh, unconfigured node.
    Restart { node: NodeId },
    /// Fault plane: kill up to `count` current cluster heads.
    HeadKill { count: u32 },
}

/// The recipients of a delivery run, in push order. The first is kept
/// inline, so a run of one (every unicast) allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct Recipients {
    first: NodeId,
    rest: Vec<NodeId>,
}

impl Recipients {
    /// `to`, `copies` times (a delivery and its same-instant duplicates).
    fn repeat(to: NodeId, copies: u32) -> Self {
        Recipients {
            first: to,
            rest: vec![to; copies as usize - 1],
        }
    }

    fn len(&self) -> usize {
        1 + self.rest.len()
    }

    fn get(&self, i: usize) -> NodeId {
        if i == 0 {
            self.first
        } else {
            self.rest[i - 1]
        }
    }

    /// The recipient of a run of one, as [`EventQueue::pop_due`]
    /// returns them.
    pub(crate) fn single(&self) -> NodeId {
        debug_assert!(self.rest.is_empty(), "a popped delivery has one recipient");
        self.first
    }
}

/// An event with its firing time and a deterministic FIFO tiebreak. A
/// delivery run covers the sequence numbers `seq .. seq + recipients`.
#[derive(Debug, Clone)]
pub(crate) struct Scheduled<M> {
    pub at: SimTime,
    pub seq: u64,
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for Scheduled<M> {}

impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Scheduled<M> {
    /// Reversed so that `BinaryHeap` pops the *earliest* event first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The run [`EventQueue::pop_due`] is handing out, and the index of
/// its next recipient.
#[derive(Debug)]
struct Fanning<M> {
    at: SimTime,
    seq: u64,
    from: NodeId,
    msg: M,
    to: Recipients,
    next: usize,
}

/// The pending-event queue: a binary heap ordered by `(at, seq)` whose
/// delivery entries are *runs*.
///
/// Every pushed delivery takes one sequence number, exactly as if each
/// were its own entry. A run is a set of deliveries with consecutive
/// sequence numbers at one instant with one payload, so it stands in
/// for its recipients' entries without changing where any of them
/// sorts. [`pop_due`](EventQueue::pop_due) keeps a cursor on the run it
/// popped and returns one recipient per call, cloning the payload for
/// every recipient but the last, which receives it by move. Events
/// pushed meanwhile sort after the rest of the run, as they would have.
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Scheduled<M>>,
    next_seq: u64,
    /// Queued events, each run counted once per recipient left.
    depth: usize,
    fanning: Option<Fanning<M>>,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            depth: 0,
            fanning: None,
        }
    }
}

impl<M: Clone> EventQueue<M> {
    /// Queues `kind` at `at`; a delivery run takes one sequence number
    /// per recipient.
    pub(crate) fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let n = match &kind {
            EventKind::Deliver { to, .. } => to.len(),
            _ => 1,
        };
        self.heap.push(Scheduled {
            at,
            seq: self.next_seq,
            kind,
        });
        self.next_seq += n as u64;
        self.depth += n;
    }

    /// Queued events, counting a run once per recipient not yet popped.
    pub(crate) fn len(&self) -> usize {
        self.depth
    }

    /// Heap entries, plus the run being fanned out.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        self.heap.len() + usize::from(self.fanning.is_some())
    }

    /// Pops the earliest event at or before `until`. A delivery comes
    /// out as a run of one, with the sequence number it was pushed with.
    pub(crate) fn pop_due(&mut self, until: SimTime) -> Option<Scheduled<M>> {
        if self.fanning.is_none() {
            if self.heap.peek().is_none_or(|e| e.at > until) {
                return None;
            }
            let ev = self.heap.pop().expect("peeked");
            match ev.kind {
                EventKind::Deliver { from, msg, to } => {
                    self.fanning = Some(Fanning {
                        at: ev.at,
                        seq: ev.seq,
                        from,
                        msg,
                        to,
                        next: 0,
                    });
                }
                kind => {
                    self.depth -= 1;
                    return Some(Scheduled { kind, ..ev });
                }
            }
        }
        let run = self.fanning.as_mut().expect("a run is being fanned out");
        if run.at > until {
            return None;
        }
        let i = run.next;
        run.next += 1;
        let (at, seq, from, to) = (run.at, run.seq + i as u64, run.from, run.to.get(i));
        let msg = if run.next < run.to.len() {
            run.msg.clone()
        } else {
            self.fanning.take().expect("checked above").msg
        };
        self.depth -= 1;
        Some(Scheduled {
            at,
            seq,
            kind: EventKind::Deliver {
                from,
                msg,
                to: Recipients::repeat(to, 1),
            },
        })
    }
}

/// Groups the deliveries of one send into runs as they are queued.
///
/// Deliveries of the send's payload extend the open run while they go
/// to its instant; one to another instant (the next BFS ring, or a
/// fault-delayed copy) closes it and opens the next. A copy with a
/// payload of its own (one a wire shadow decoded) closes the open run
/// and is queued as a run of its own. Nothing else may be pushed to the
/// queue while a builder is open: a run's sequence numbers must stay
/// consecutive.
#[derive(Debug)]
pub(crate) struct RunBuilder<M> {
    from: NodeId,
    msg: M,
    /// The open run: its instant, the sequence number it will start
    /// at, and its recipients so far.
    open: Option<(SimTime, u64, Recipients)>,
}

impl<M: Clone> RunBuilder<M> {
    pub(crate) fn new(from: NodeId, msg: M) -> Self {
        RunBuilder {
            from,
            msg,
            open: None,
        }
    }

    /// The send's payload.
    pub(crate) fn payload(&self) -> &M {
        &self.msg
    }

    /// Adds `copies` deliveries of the payload to `to` at `at`.
    pub(crate) fn push(&mut self, q: &mut EventQueue<M>, at: SimTime, to: NodeId, copies: u32) {
        if let Some((t, _, run)) = &mut self.open {
            if *t == at {
                run.rest.extend(std::iter::repeat_n(to, copies as usize));
                return;
            }
        }
        self.close(q);
        self.open = Some((at, q.next_seq, Recipients::repeat(to, copies)));
    }

    /// Adds `copies` deliveries of `msg`, a payload of their own, to
    /// `to` at `at` as a run of their own.
    pub(crate) fn push_own(
        &mut self,
        q: &mut EventQueue<M>,
        at: SimTime,
        to: NodeId,
        copies: u32,
        msg: M,
    ) {
        self.close(q);
        let to = Recipients::repeat(to, copies);
        q.push(
            at,
            EventKind::Deliver {
                from: self.from,
                msg,
                to,
            },
        );
    }

    /// Queues the open run with the payload moved into it.
    pub(crate) fn finish(self, q: &mut EventQueue<M>) {
        if let Some((at, seq, to)) = self.open {
            debug_assert_eq!(q.next_seq, seq, "a push interleaved with an open run");
            q.push(
                at,
                EventKind::Deliver {
                    from: self.from,
                    msg: self.msg,
                    to,
                },
            );
        }
    }

    /// Queues the open run, if any, with a copy of the payload.
    fn close(&mut self, q: &mut EventQueue<M>) {
        if let Some((at, seq, to)) = self.open.take() {
            debug_assert_eq!(q.next_seq, seq, "a push interleaved with an open run");
            q.push(
                at,
                EventKind::Deliver {
                    from: self.from,
                    msg: self.msg.clone(),
                    to,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    fn ev(at: u64, seq: u64) -> Scheduled<()> {
        Scheduled {
            at: SimTime::from_micros(at),
            seq,
            kind: EventKind::Join {
                node: NodeId::new(0),
            },
        }
    }

    #[test]
    fn heap_pops_earliest_first() {
        let mut heap = BinaryHeap::new();
        heap.push(ev(30, 0));
        heap.push(ev(10, 1));
        heap.push(ev(20, 2));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|e| e.at.as_micros())).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn same_time_is_fifo_by_seq() {
        let mut heap = BinaryHeap::new();
        heap.push(ev(10, 5));
        heap.push(ev(10, 3));
        heap.push(ev(10, 4));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![3, 4, 5]);
    }

    #[test]
    fn timer_id_display() {
        assert_eq!(TimerId::from_raw(9).to_string(), "t9");
    }

    #[test]
    fn a_run_of_one_does_not_allocate() {
        let mut q = EventQueue::default();
        let mut runs = RunBuilder::new(NodeId::new(0), "m");
        runs.push(&mut q, SimTime::from_micros(5), NodeId::new(1), 1);
        let (_, _, run) = runs.open.as_ref().expect("opened");
        assert_eq!(run.rest.capacity(), 0);
        runs.finish(&mut q);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn a_run_pops_one_recipient_per_call_and_moves_the_payload_last() {
        let mut q = EventQueue::default();
        let at = SimTime::from_micros(5);
        let mut runs = RunBuilder::new(NodeId::new(0), String::from("hello"));
        for to in 1..=3 {
            runs.push(&mut q, at, NodeId::new(to), 1);
        }
        runs.finish(&mut q);
        assert_eq!((q.heap.len(), q.len()), (1, 3));
        let mut got = Vec::new();
        while let Some(e) = q.pop_due(at) {
            let EventKind::Deliver { from, msg, to } = e.kind else {
                panic!("only deliveries were queued");
            };
            got.push((e.seq, from.index(), to.single().index(), msg));
            assert_eq!(q.len(), 3 - got.len());
        }
        let hello = || String::from("hello");
        assert_eq!(
            got,
            vec![(0, 0, 1, hello()), (1, 0, 2, hello()), (2, 0, 3, hello())]
        );
        assert!(q.fanning.is_none());
    }

    /// One recipient of a generated send.
    #[derive(Debug, Clone)]
    struct Recipient {
        /// Hops beyond the previous recipient's (rings are sorted).
        ring_step: u32,
        /// Fault-plane delay on top of the ring's instant.
        extra: u64,
        /// Same-instant copies (1 plus duplicates).
        copies: u32,
        /// 0: lost or dropped, 1: a shadow-decoded copy of its own,
        /// otherwise the send's payload.
        fate: u8,
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A single non-delivery push, `delta` µs from now.
        Single(u64),
        /// A send: `hop_delay` µs per ring (0 puts every ring at now).
        Send(u64, Vec<Recipient>),
        /// `pop_due(now + delta)`.
        Pop(u64),
        /// `pop_due` just before now: nothing is due, not even the rest
        /// of a run being fanned out.
        PopEarly,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let recipient =
            (0u32..4, 0u64..6, 1u32..4, 0u8..6).prop_map(|(step, extra, copies, fate)| Recipient {
                ring_step: step.saturating_sub(2),
                extra: extra.saturating_sub(3),
                copies: if copies == 3 { 2 } else { 1 },
                fate,
            });
        prop_oneof![
            (0u64..4).prop_map(Op::Single),
            (0u64..3, prop::collection::vec(recipient, 1..12)).prop_map(|(h, r)| Op::Send(h, r)),
            (0u64..4).prop_map(Op::Pop),
            (0u64..4).prop_map(Op::Pop),
            Just(Op::PopEarly),
        ]
    }

    /// What one popped event was, comparable across the two queues:
    /// `(at, seq, to, from, payload)`, with `to = u64::MAX` for a
    /// non-delivery whose payload is its tag.
    type Seen = (u64, u64, u64, u64, u64);

    fn seen(e: Scheduled<u64>) -> Seen {
        let (at, seq) = (e.at.as_micros(), e.seq);
        match e.kind {
            EventKind::Deliver { from, msg, to } => {
                (at, seq, to.single().index(), from.index(), msg)
            }
            EventKind::Timer { tag, .. } => (at, seq, u64::MAX, 0, tag),
            other => panic!("unexpected event {other:?}"),
        }
    }

    proptest! {
        /// The run queue pops exactly what a heap with one entry per
        /// recipient pops: same instants, sequence numbers, recipients,
        /// senders and payloads, in the same order, and the same depth
        /// after every operation.
        #[test]
        fn run_queue_matches_a_per_recipient_heap(
            ops in prop::collection::vec(arb_op(), 1..60)
        ) {
            let mut q: EventQueue<u64> = EventQueue::default();
            let mut reference: BinaryHeap<Reverse<Seen>> = BinaryHeap::new();
            let mut next_seq = 0u64;
            let mut now = 0u64;
            let mut label = 0u64;
            let mut fresh = || {
                label += 1;
                label
            };
            for op in ops {
                match op {
                    Op::Single(delta) => {
                        let tag = fresh();
                        let kind = EventKind::Timer {
                            node: NodeId::new(0),
                            id: TimerId::from_raw(tag),
                            tag,
                        };
                        q.push(SimTime::from_micros(now + delta), kind);
                        reference.push(Reverse((now + delta, next_seq, u64::MAX, 0, tag)));
                        next_seq += 1;
                    }
                    Op::Send(hop_delay, recipients) => {
                        let (from, payload) = (fresh(), fresh());
                        let mut runs = RunBuilder::new(NodeId::new(from), payload);
                        let mut ring = 1;
                        for (i, r) in recipients.iter().enumerate() {
                            ring += r.ring_step;
                            let to = i as u64;
                            let at = now + hop_delay * u64::from(ring) + r.extra;
                            let t = SimTime::from_micros(at);
                            let msg = match r.fate {
                                0 => continue,
                                1 => {
                                    let own = fresh();
                                    runs.push_own(&mut q, t, NodeId::new(to), r.copies, own);
                                    own
                                }
                                _ => {
                                    runs.push(&mut q, t, NodeId::new(to), r.copies);
                                    payload
                                }
                            };
                            for _ in 0..r.copies {
                                reference.push(Reverse((at, next_seq, to, from, msg)));
                                next_seq += 1;
                            }
                        }
                        runs.finish(&mut q);
                    }
                    Op::Pop(_) | Op::PopEarly => {
                        let until = match op {
                            Op::Pop(delta) => now + delta,
                            _ => now.saturating_sub(1),
                        };
                        let want = reference
                            .peek()
                            .is_some_and(|e| e.0 .0 <= until)
                            .then(|| reference.pop().expect("peeked").0);
                        let got = q.pop_due(SimTime::from_micros(until)).map(seen);
                        prop_assert_eq!(got, want);
                        if let Some(e) = got {
                            now = e.0;
                        }
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
            }
            while let Some(Reverse(want)) = reference.pop() {
                prop_assert_eq!(q.pop_due(SimTime::MAX).map(seen), Some(want));
            }
            prop_assert!(q.pop_due(SimTime::MAX).is_none());
            prop_assert_eq!(q.len(), 0);
        }
    }
}
