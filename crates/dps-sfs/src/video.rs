//! The Fig. 4 video pipeline: stream-operation frame recomposition.
//!
//! "An uncompressed video stream is stored on a disk array as partial
//! frames, which need to be recomposed before further processing. The use
//! of the stream operation enables complete frames to be processed as soon
//! as they are ready, without waiting until all partial frames have been
//! read." — paper §3.
//!
//! Pipeline stages (paper numbering):
//! 1. generate frame-part read requests;
//! 2. read frame parts from the disk array;
//! 3. combine frame parts into complete frames and *stream* them out;
//! 4. process complete frames;
//! 5. merge processed frames onto the final stream.

use std::collections::HashMap;

use dps_cluster::default_mapping;
use dps_core::prelude::*;
use dps_core::{downcast, dps_token, Engine, GraphHandle};
use dps_des::SimSpan;
use dps_serial::Buffer;

use crate::store::{stripe_route_w, MergeAcks, StoreStripe, StripeStore, StripeWrite};

dps_token! {
    /// Process `frames` frames of `parts` parts each.
    pub struct VideoJob { pub frames: u32, pub parts: u32 }
}
dps_token! {
    /// Read request for one frame part (stage 1 → 2).
    pub struct PartReq { pub frame: u32, pub part: u32 }
}
dps_token! {
    /// One frame part read from a disk (stage 2 → 3).
    pub struct FramePart { pub frame: u32, pub part: u32, pub data: Buffer<u8> }
}
dps_token! {
    /// A recomposed frame (stage 3 → 4).
    pub struct FullFrame { pub frame: u32, pub data: Buffer<u8> }
}
dps_token! {
    /// A processed frame (stage 4 → 5).
    pub struct ProcessedFrame { pub frame: u32, pub checksum: u64 }
}
dps_token! {
    /// Final stream summary.
    pub struct VideoDone { pub frames: u32, pub checksum: u64 }
}

/// Preload: one stripe write per frame part, keyed `file = frame`,
/// `index = part`, so the part lands on disk `part % disks` — the disk
/// stage 2 reads it from.
struct SplitFrames {
    part_bytes: usize,
}
impl SplitOperation for SplitFrames {
    type Thread = ();
    type In = VideoJob;
    type Out = StripeWrite;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), StripeWrite>, j: VideoJob) {
        for frame in 0..j.frames {
            for part in 0..j.parts {
                let data: Vec<u8> = (0..self.part_bytes)
                    .map(|i| ((frame as usize * 131 + part as usize * 17 + i) % 256) as u8)
                    .collect();
                ctx.post(StripeWrite {
                    file: u64::from(frame),
                    index: part,
                    data: data.into(),
                });
            }
        }
    }
}

/// Stage 1: generate the read requests.
struct SplitParts;
impl SplitOperation for SplitParts {
    type Thread = ();
    type In = VideoJob;
    type Out = PartReq;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), PartReq>, j: VideoJob) {
        for frame in 0..j.frames {
            for part in 0..j.parts {
                ctx.post(PartReq { frame, part });
            }
        }
    }
}

/// Stage 2: read one part from the disk array.
struct ReadPart;
impl LeafOperation for ReadPart {
    type Thread = StripeStore;
    type In = PartReq;
    type Out = FramePart;
    fn execute(&mut self, ctx: &mut OpCtx<'_, StripeStore, FramePart>, r: PartReq) {
        let store = ctx.thread();
        let data = store
            .get(u64::from(r.frame), r.part)
            .expect("frame part stored on this disk");
        let access = store.disk.access(data.len());
        ctx.charge(access);
        ctx.post(FramePart {
            frame: r.frame,
            part: r.part,
            data: data.into(),
        });
    }
}

/// Stage 3: the stream operation — recompose frames and forward each one as
/// soon as its last part arrives.
struct Recompose {
    parts_per_frame: u32,
    buffers: HashMap<u32, Vec<Option<Vec<u8>>>>,
}
impl Recompose {
    fn new(parts_per_frame: u32) -> impl Fn() -> Self {
        move || Self {
            parts_per_frame,
            buffers: HashMap::new(),
        }
    }
}
impl StreamOperation for Recompose {
    type Thread = ();
    type In = FramePart;
    type Out = FullFrame;
    fn consume(&mut self, ctx: &mut OpCtx<'_, (), FullFrame>, p: FramePart) {
        let n = self.parts_per_frame as usize;
        let slots = self.buffers.entry(p.frame).or_insert_with(|| vec![None; n]);
        slots[p.part as usize] = Some(p.data.into_vec());
        if slots.iter().all(Option::is_some) {
            let slots = self.buffers.remove(&p.frame).expect("present");
            let data: Vec<u8> = slots.into_iter().flatten().flatten().collect();
            ctx.charge_flops(data.len() as f64); // one assembly pass
            ctx.post(FullFrame {
                frame: p.frame,
                data: data.into(),
            });
        }
    }
    fn finalize(&mut self, _ctx: &mut OpCtx<'_, (), FullFrame>) {
        debug_assert!(self.buffers.is_empty(), "all frames completed");
    }
}

/// Stage 4: process one complete frame (a per-pixel pass).
struct ProcessFrame;
impl LeafOperation for ProcessFrame {
    type Thread = ();
    type In = FullFrame;
    type Out = ProcessedFrame;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), ProcessedFrame>, f: FullFrame) {
        // ~20 ops per pixel, a cheap video filter.
        ctx.charge_flops(f.data.len() as f64 * 20.0);
        let checksum = f.data.iter().fold(0u64, |acc, &b| {
            acc.wrapping_mul(131).wrapping_add(u64::from(b))
        });
        ctx.post(ProcessedFrame {
            frame: f.frame,
            checksum,
        });
    }
}

/// Stage 5: merge the processed frames onto the final stream.
#[derive(Default)]
struct MergeStream {
    frames: u32,
    checksum: u64,
}
impl MergeOperation for MergeStream {
    type Thread = ();
    type In = ProcessedFrame;
    type Out = VideoDone;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), VideoDone>, f: ProcessedFrame) {
        self.frames += 1;
        self.checksum ^= f.checksum.rotate_left(f.frame % 63);
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), VideoDone>) {
        ctx.post(VideoDone {
            frames: self.frames,
            checksum: self.checksum,
        });
    }
}

/// Build the Fig. 4 pipeline. `use_stream = false` replaces the stream
/// recomposition with a merge-then-split construct (all parts of *all*
/// frames must arrive before processing starts) — the ablation showing what
/// the stream operation buys.
pub fn build_video_graph<E: Engine>(
    eng: &mut E,
    master: &ThreadCollection<()>,
    disks: &ThreadCollection<StripeStore>,
    procs: &ThreadCollection<()>,
    parts_per_frame: u32,
    use_stream: bool,
) -> Result<GraphHandle> {
    let mut b = GraphBuilder::new(if use_stream {
        "video-stream"
    } else {
        "video-merge-split"
    });
    let s = b.split(master, || ToThread(0), || SplitParts);
    let read = b.leaf(
        disks,
        || ByKey::new(|r: &PartReq| r.part as usize),
        || ReadPart,
    );
    if use_stream {
        let recompose = b.stream(master, || ToThread(0), Recompose::new(parts_per_frame));
        let process = b.leaf(procs, RoundRobin::new, || ProcessFrame);
        let merge = b.merge(master, || ToThread(0), MergeStream::default);
        b.add(s >> read >> recompose >> process >> merge);
    } else {
        // Merge-split ablation: a merge barrier collects all parts, then a
        // split re-fans the complete frames.
        let collect = b.merge(
            master,
            || ToThread(0),
            CollectAllParts::new(parts_per_frame),
        );
        let fan = b.split(master, || ToThread(0), || FanFrames);
        let process = b.leaf(procs, RoundRobin::new, || ProcessFrame);
        let merge = b.merge(master, || ToThread(0), MergeStream::default);
        b.add(s >> read >> collect >> fan >> process >> merge);
    }
    eng.build_graph(b)
}

dps_token! {
    /// All frames, recomposed (merge-split ablation only).
    pub struct AllFrames { pub frames: Vector<FullFrame> }
}
use dps_serial::Vector;

/// Merge-barrier recomposition (ablation).
struct CollectAllParts {
    parts_per_frame: u32,
    buffers: HashMap<u32, Vec<Option<Vec<u8>>>>,
}
impl CollectAllParts {
    fn new(parts_per_frame: u32) -> impl Fn() -> Self {
        move || Self {
            parts_per_frame,
            buffers: HashMap::new(),
        }
    }
}
impl MergeOperation for CollectAllParts {
    type Thread = ();
    type In = FramePart;
    type Out = AllFrames;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), AllFrames>, p: FramePart) {
        let n = self.parts_per_frame as usize;
        self.buffers.entry(p.frame).or_insert_with(|| vec![None; n])[p.part as usize] =
            Some(p.data.into_vec());
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), AllFrames>) {
        let mut frames: Vec<FullFrame> = self
            .buffers
            .drain()
            .map(|(frame, slots)| FullFrame {
                frame,
                data: slots
                    .into_iter()
                    .flatten()
                    .flatten()
                    .collect::<Vec<u8>>()
                    .into(),
            })
            .collect();
        frames.sort_by_key(|f| f.frame);
        let bytes: usize = frames.iter().map(|f| f.data.len()).sum();
        ctx.charge_flops(bytes as f64);
        ctx.post(AllFrames {
            frames: frames.into(),
        });
    }
}

/// Fan the collected frames out for processing (ablation).
struct FanFrames;
impl SplitOperation for FanFrames {
    type Thread = ();
    type In = AllFrames;
    type Out = FullFrame;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), FullFrame>, a: AllFrames) {
        for f in a.frames.into_vec() {
            ctx.post(f);
        }
    }
}

/// Parameters of a video-pipeline run.
#[derive(Debug, Clone)]
pub struct VideoConfig {
    /// Number of frames.
    pub frames: u32,
    /// Parts per frame (= disks touched per frame).
    pub parts: u32,
    /// Bytes per part.
    pub part_bytes: usize,
    /// Cluster nodes (disk servers).
    pub nodes: usize,
    /// Use the stream operation (true) or the merge-split ablation.
    pub use_stream: bool,
}

/// Build the frame preload graph (`VideoJob → WriteAck`): every frame part
/// goes through the store's stripe-write leaf.
fn build_preload_graph<E: Engine>(
    eng: &mut E,
    master: &ThreadCollection<()>,
    disks: &ThreadCollection<StripeStore>,
    part_bytes: usize,
) -> Result<GraphHandle> {
    let mut b = GraphBuilder::new("video-preload");
    let s = b.split(master, || ToThread(0), move || SplitFrames { part_bytes });
    let w = b.leaf(disks, stripe_route_w, || StoreStripe);
    let m = b.merge(master, || ToThread(0), MergeAcks::default);
    b.add(s >> w >> m);
    eng.build_graph(b)
}

/// Run the video pipeline on any engine: preload the frames onto the disk
/// array, then time one pass. Returns `(elapsed, processed frames,
/// checksum)`, the time in the engine's own notion of time.
pub fn run_video<E: Engine>(eng: &mut E, cfg: &VideoConfig) -> Result<(SimSpan, u32, u64)> {
    let app = eng.app("video");
    eng.preload_app(app);
    let master: ThreadCollection<()> = eng.thread_collection(app, "m", "node0")?;
    let mapping = default_mapping(cfg.nodes, 1);
    let disks: ThreadCollection<StripeStore> = eng.thread_collection(app, "disks", &mapping)?;
    let procs: ThreadCollection<()> = eng.thread_collection(app, "procs", &mapping)?;
    let preload = build_preload_graph(eng, &master, &disks, cfg.part_bytes)?;
    let g = build_video_graph(eng, &master, &disks, &procs, cfg.parts, cfg.use_stream)?;
    let job = || VideoJob {
        frames: cfg.frames,
        parts: cfg.parts,
    };
    eng.submit(preload, Box::new(job()))?;
    eng.run_to_idle(preload, 1)?;
    let _ = eng.take_outputs(preload);
    let t0 = eng.now_secs();
    eng.submit(g, Box::new(job()))?;
    eng.run_to_idle(g, 1)?;
    let elapsed = SimSpan::from_secs_f64(eng.now_secs() - t0);
    let done = downcast::<VideoDone>(eng.take_outputs(g).pop().expect("one output"))
        .expect("VideoDone output");
    Ok((elapsed, done.frames, done.checksum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_cluster::ClusterSpec;
    use dps_core::SimEngine;

    fn run(cfg: &VideoConfig) -> (SimSpan, u32, u64) {
        run_video(&mut SimEngine::new(ClusterSpec::paper_testbed(4)), cfg).unwrap()
    }

    fn cfg(use_stream: bool) -> VideoConfig {
        VideoConfig {
            frames: 6,
            parts: 4,
            part_bytes: 16 * 1024,
            nodes: 4,
            use_stream,
        }
    }

    #[test]
    fn stream_pipeline_processes_all_frames() {
        let (_, frames, _) = run(&cfg(true));
        assert_eq!(frames, 6);
    }

    #[test]
    fn ablation_produces_identical_checksum() {
        let (_, f1, c1) = run(&cfg(true));
        let (_, f2, c2) = run(&cfg(false));
        assert_eq!((f1, c1), (f2, c2), "same frames either way");
    }

    #[test]
    fn stream_is_faster_than_merge_split() {
        // The paper's point about Fig. 4: frames are processed as soon as
        // they are ready instead of after the last disk read.
        let (t_stream, ..) = run(&cfg(true));
        let (t_barrier, ..) = run(&cfg(false));
        assert!(
            t_stream < t_barrier,
            "stream {t_stream} should beat merge-split {t_barrier}"
        );
    }
}
