//! The pipeline's front half (§3, Figure 1): the offered load the attacks
//! put on their victims, the telescope's inference of RSDoS episodes from
//! their backscatter, and the join of those episodes with the previous
//! day's nameserver records.
//!
//! This module is the one production spelling of that chain:
//! [`longitudinal::run`](crate::longitudinal::run), the daemon's feed and
//! the case-study scenarios all start here. The row join ([`crate::join`])
//! stays as the differential reference the tests hold this path's join
//! against.

use crate::columnar::JoinTable;
use attack::Attack;
use census::OpenResolverList;
use dnssim::{Infra, LoadBook};
use simcore::rng::RngFactory;
use telescope::{
    AttackEpisode, BackscatterSampler, Darknet, EpisodeColumns, RecordBlock, RsdosClassifier,
    RsdosFeed, RsdosThresholds,
};

/// Offered load: every vector of every attack loads its victim.
pub fn load_book(attacks: &[Attack]) -> LoadBook {
    let mut loads = LoadBook::new();
    for (addr, w, pps) in attack::accumulate_windows(attacks) {
        loads.add(addr, w, pps);
    }
    loads
}

/// What the telescope inferred: the qualifying feed records and the
/// episodes extracted from them.
pub struct TelescopeView {
    pub records: RecordBlock,
    pub episodes: Vec<AttackEpisode>,
}

impl TelescopeView {
    /// The row feed: a copy of the records and the episodes moved out.
    /// The records stay in the view; its owner decides when to free them.
    pub fn take_feed(&mut self) -> RsdosFeed {
        RsdosFeed::new(self.records.iter().collect(), std::mem::take(&mut self.episodes))
    }
}

/// Sample the darknet's backscatter from `attacks` and classify it into
/// episodes. The raw observations are freed before this returns.
pub fn observe(
    darknet: &Darknet,
    thresholds: RsdosThresholds,
    attacks: &[Attack],
    rngs: &RngFactory,
) -> TelescopeView {
    let classifier = RsdosClassifier::new(thresholds);
    let observations = BackscatterSampler::new(darknet).sample(attacks, rngs);
    let records = classifier.classify_into_block(&observations);
    let episodes = classifier.episodes_from_block(&records);
    // Freed after the extraction: the space they leave is then free when
    // the row feed is copied out (`take_feed`). Freed before it, with the
    // rows sized to the observation count, `batch_sparse` read a peak RSS
    // 20 MB higher in about one run in five.
    drop(observations);
    TelescopeView { records, episodes }
}

/// The RSDoS feed of `attacks` as a UCSD-NT-like telescope with the
/// default thresholds sees it.
pub fn feed(attacks: &[Attack], rngs: &RngFactory) -> RsdosFeed {
    observe(&Darknet::ucsd_like(), RsdosThresholds::default(), attacks, rngs).take_feed()
}

/// Join the episodes against the previous day's nameserver records,
/// leaving out victims on `open_resolvers` (§6.1). Sharded across `jobs`
/// workers and byte-identical to the sequential join for any value; emits
/// join trace events under `trace_scope`.
pub fn join(
    infra: &Infra,
    columns: &EpisodeColumns,
    open_resolvers: &OpenResolverList,
    include_collateral: bool,
    jobs: usize,
    trace_scope: Option<&str>,
) -> JoinTable {
    JoinTable::build(
        infra,
        infra,
        columns,
        open_resolvers,
        include_collateral,
        1,
        jobs,
        trace_scope,
    )
}
