//! Every interleaving of up to three writes with a warm-spare handoff,
//! driven through the sans-IO core (`cliquemap::handoff`) alone.
//!
//! The primary holds a snapshot of `MIGRATE_BATCH + 1` pairs, so its
//! handoff sends two snapshot chunks and then the delta. The enumeration
//! places up to three writes — SET, CAS or ERASE over two keys, one in the
//! snapshot and one not — at every position relative to the prepare, the
//! config answer, each chunk's ack or failure, the cut, the publication and
//! the grace expiry. The model primary commits what `admit` accepts and
//! reports it to `committed`; the model spare applies each chunk the
//! harness acks. Every history must keep the handoff's rule — a mutation is
//! acked only where the shard's owner will hold it:
//!
//! * every admitted write is at the spare once it has taken over, at or
//!   above its version (an ERASE: no live copy below it) — unless the
//!   handoff aborted, and then the primary admits again;
//! * nothing is admitted from the cut until an abort;
//! * `Publish` comes once, answering the last chunk's ack, and `Exit` once,
//!   answering the grace expiry; nothing follows `Exit`.

use bytes::Bytes;
use cliquemap::config::{CellConfig, ReplicationMode};
use cliquemap::handoff::{Admit, Handoff, Step, MIGRATE_BATCH};
use cliquemap::messages::MigrateChunk;
use cliquemap::version::VersionNumber;

const SPARE: u32 = 13;
const MAX_WRITES: usize = 3;

/// The keys writes go to: the first is in the snapshot, the second not.
const KEYS: [&[u8]; 2] = [b"base0", b"fresh"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Set,
    Cas,
    Erase,
}

/// Where the handoff stands, as the harness sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Before,
    AwaitConfig,
    InFlight,
    AwaitPublished,
    AwaitGrace,
    Exited,
    Aborted,
}

/// The protocol events the harness delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Input {
    Prepare,
    Config,
    Ack,
    Fail,
    Published,
    GraceExpired,
}

/// One entry of a history, printed when a check fails.
#[derive(Debug, Clone, Copy)]
#[allow(dead_code)] // read only through `Debug`
enum Event {
    In(Input),
    /// A write: its kind, key index and version, and whether it was
    /// admitted.
    Write(Kind, usize, u64, bool),
}

/// What a node holds for each write key: live (`false`: a tombstone) at a
/// version, or nothing.
type Held = [Option<(bool, u64)>; 2];

fn apply(held: &mut Held, key: usize, live: bool, version: u64) {
    if held[key].is_none_or(|(_, v)| version > v) {
        held[key] = Some((live, version));
    }
}

fn version(n: u64) -> VersionNumber {
    VersionNumber::new(n, 0, 1)
}

fn config() -> CellConfig {
    CellConfig {
        config_id: 4,
        replication: ReplicationMode::R32,
        shards: vec![10, 11, 12],
        spares: vec![SPARE],
    }
}

#[derive(Clone)]
struct World {
    core: Handoff,
    stage: Stage,
    /// The primary's copy of the write keys (the snapshot's other pairs
    /// never change).
    primary: Held,
    /// The spare's copy of the write keys.
    spare: Held,
    in_flight: Option<MigrateChunk>,
    /// A last chunk is cut and no abort followed.
    cut: bool,
    took_over: bool,
    publishes: u32,
    /// The last write admitted per key: kind and version.
    admitted: [Option<(Kind, u64)>; 2],
    writes: usize,
    next_version: u64,
    history: Vec<Event>,
}

impl World {
    fn new() -> World {
        World {
            core: Handoff::default(),
            stage: Stage::Before,
            primary: [Some((true, 1)), None],
            spare: [None, None],
            in_flight: None,
            cut: false,
            took_over: false,
            publishes: 0,
            admitted: [None, None],
            writes: 0,
            next_version: 2,
            history: Vec::new(),
        }
    }

    fn fail(&self, why: &str) -> ! {
        panic!("{why}\nhistory: {:?}", self.history);
    }

    /// The snapshot at prepare: `MIGRATE_BATCH + 1` pairs — the first is
    /// write key 0's if the primary holds it live — then write key 1's if
    /// live.
    fn snapshot(&self) -> Vec<(Bytes, Bytes, VersionNumber)> {
        let pair = |key: &[u8], v| (Bytes::copy_from_slice(key), Bytes::new(), version(v));
        let mut pairs = Vec::new();
        if let Some((true, v)) = self.primary[0] {
            pairs.push(pair(KEYS[0], v));
        }
        pairs.extend((1..=MIGRATE_BATCH).map(|i| pair(format!("base{i}").as_bytes(), 1)));
        if let Some((true, v)) = self.primary[1] {
            pairs.push(pair(KEYS[1], v));
        }
        pairs
    }

    fn inputs(&self) -> &'static [Input] {
        match self.stage {
            Stage::Before => &[Input::Prepare],
            Stage::AwaitConfig => &[Input::Config],
            Stage::InFlight => &[Input::Ack, Input::Fail],
            Stage::AwaitPublished => &[Input::Published],
            Stage::AwaitGrace => &[Input::GraceExpired],
            Stage::Exited | Stage::Aborted => &[],
        }
    }

    fn deliver(&mut self, input: Input) {
        self.history.push(Event::In(input));
        let step = match input {
            Input::Prepare => {
                let snapshot = self.snapshot();
                Some(self.core.prepare(SPARE, || snapshot))
            }
            Input::Config => self.core.config(config(), 0),
            Input::Ack => {
                let chunk = self.in_flight.take().expect("a chunk in flight");
                let live = chunk.entries.iter().map(|(k, _, v)| (k, true, v));
                let erased = chunk.erased.iter().map(|(k, v)| (k, false, v));
                for (key, live, v) in live.chain(erased) {
                    if let Some(i) = KEYS.iter().position(|&k| k == &key[..]) {
                        apply(&mut self.spare, i, live, v.truetime_ns());
                    }
                }
                if chunk.last {
                    self.took_over = true;
                    self.check_spare("at takeover");
                }
                let step = self.core.chunk_acked();
                if matches!(step, Some(Step::Publish(_))) && !chunk.last {
                    self.fail("Publish answered the ack of a chunk that was not the last");
                }
                step
            }
            Input::Fail => {
                self.in_flight = None;
                self.core.chunk_failed()
            }
            Input::Published => self.core.published(),
            Input::GraceExpired => self.core.grace_expired(),
        };
        let Some(step) = step else {
            self.fail(&format!("{input:?} got no step"));
        };
        self.stage = match step {
            Step::Busy => self.fail("a first prepare was refused"),
            Step::GetConfig => Stage::AwaitConfig,
            Step::SendChunk(spare, chunk) => {
                if spare != SPARE || self.cut {
                    self.fail("a chunk went elsewhere, or after the last one");
                }
                self.cut = chunk.last;
                self.in_flight = Some(chunk);
                Stage::InFlight
            }
            Step::Publish(config) => {
                self.publishes += 1;
                if self.publishes > 1 || !self.took_over || config.shards[0] != SPARE {
                    self.fail("Publish came twice, before the takeover, or wrong");
                }
                Stage::AwaitPublished
            }
            Step::StartGrace => Stage::AwaitGrace,
            Step::Exit => {
                if input != Input::GraceExpired {
                    self.fail("Exit answered something but the grace expiry");
                }
                Stage::Exited
            }
            Step::Aborted => {
                self.cut = false;
                Stage::Aborted
            }
        };
    }

    /// The last admitted write of each key is at the spare at or above its
    /// version; after an ERASE the spare may also hold nothing.
    fn check_spare(&self, when: &str) {
        for (key, admitted) in self.admitted.iter().enumerate() {
            let Some((kind, version)) = *admitted else {
                continue;
            };
            let ok = match self.spare[key] {
                None => kind == Kind::Erase,
                Some((live, v)) => v > version || (v == version && live == (kind != Kind::Erase)),
            };
            if !ok {
                self.fail(&format!(
                    "{when}: the spare lost {kind:?} of key {key} @{version}"
                ));
            }
        }
    }

    fn write(&mut self, kind: Kind, key: usize) {
        let v = self.next_version;
        self.next_version += 1;
        self.writes += 1;
        let admit = self.core.admit();
        self.history
            .push(Event::Write(kind, key, v, admit == Admit::Accept));
        if admit == Admit::Reject {
            return;
        }
        if self.cut {
            self.fail("a write was admitted after the last chunk was cut");
        }
        let live = kind != Kind::Erase;
        apply(&mut self.primary, key, live, v);
        let value = live.then_some(&b"value"[..]);
        self.core.committed(KEYS[key], value, version(v));
        self.admitted[key] = Some((kind, v));
    }

    /// The writes open here: every kind on every key, CAS only on a key the
    /// primary holds live (elsewhere the store refuses it before its commit
    /// point).
    fn moves(&self) -> Vec<(Kind, usize)> {
        if self.writes == MAX_WRITES {
            return Vec::new();
        }
        let mut moves = Vec::new();
        for key in 0..KEYS.len() {
            let live = matches!(self.primary[key], Some((true, _)));
            for kind in [Kind::Set, Kind::Cas, Kind::Erase] {
                if kind != Kind::Cas || live {
                    moves.push((kind, key));
                }
            }
        }
        moves
    }

    /// Checks for a history whose handoff is over.
    fn check_end(&self) {
        match self.stage {
            Stage::Exited => {
                self.check_spare("at exit");
                let mut after = self.core.clone();
                let quiet = [
                    after.config(config(), 0),
                    after.chunk_acked(),
                    after.chunk_failed(),
                    after.published(),
                    after.grace_expired(),
                ];
                if quiet.iter().any(Option::is_some) || after.admit() != Admit::Reject {
                    self.fail(&format!("a step followed Exit: {quiet:?}"));
                }
            }
            Stage::Aborted if self.core.admit() != Admit::Accept => {
                self.fail("an aborted handoff left the primary refusing writes");
            }
            _ => {}
        }
    }
}

#[derive(Default)]
struct Tally {
    leaves: u64,
    exited: u64,
    aborted: u64,
}

fn explore(world: &World, tally: &mut Tally) {
    let inputs = world.inputs();
    let moves = world.moves();
    if inputs.is_empty() {
        world.check_end();
        if moves.is_empty() {
            tally.leaves += 1;
            match world.stage {
                Stage::Exited => tally.exited += 1,
                _ => tally.aborted += 1,
            }
        }
    }
    for &input in inputs {
        let mut next = world.clone();
        next.deliver(input);
        explore(&next, tally);
    }
    for (kind, key) in moves {
        let mut next = world.clone();
        next.write(kind, key);
        explore(&next, tally);
    }
}

#[test]
fn every_write_around_a_handoff_is_held_by_the_owner() {
    let mut tally = Tally::default();
    explore(&World::new(), &mut tally);
    println!(
        "{} leaves: {} handoffs completed, {} aborted",
        tally.leaves, tally.exited, tally.aborted
    );
    assert!(tally.exited > 0 && tally.aborted > 0);
}
