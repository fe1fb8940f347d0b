//! Job payloads: what a client submits and what the daemon returns.
//!
//! A [`JobSpec`] is self-contained — the archdef *text* (not a path: the
//! daemon may run on another machine), the device name, the command, and
//! the full [`FlowConfig`] in its derived-serde wire form
//! (`FlowConfig::to_json`). Its [`JobSpec::job_id`] is a stable content
//! hash of exactly those fields,
//! computed *after* the daemon normalizes the cache knobs it owns
//! (`db_dir`, `db_budget_bytes`, `threads` — see
//! [`JobSpec::normalized`]), so two clients submitting the same work get
//! the same ID regardless of their local cache settings, and concurrent
//! identical submissions coalesce onto one build. No wall clock anywhere
//! near the ID: resubmitting a job tomorrow finds today's result.
//!
//! [`FlowConfig`]: pi_flow::FlowConfig

use pi_flow::{DbCacheStats, FlowConfig};
use pi_model::ModelFormat;
use pi_netlist::StableHasher;
use serde_json::Value;
use std::path::Path;

/// What the daemon should run for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobCommand {
    /// Pre-implement the components (function optimization only); the
    /// result summary reports the database, no accelerator is composed.
    BuildDb,
    /// Full flow: build/load components off the shared cache, then
    /// compose and route the accelerator (the default).
    Compose,
}

impl JobCommand {
    pub fn as_str(self) -> &'static str {
        match self {
            JobCommand::BuildDb => "build-db",
            JobCommand::Compose => "compose",
        }
    }

    pub fn parse(s: &str) -> Option<JobCommand> {
        match s {
            "build-db" => Some(JobCommand::BuildDb),
            "compose" => Some(JobCommand::Compose),
            _ => None,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// A compile job (see module docs).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Network description text. By default this is archdef syntax
    /// (`parse_archdef` input); [`JobSpec::format`] selects one of the
    /// `pi-model` descriptor dialects instead.
    pub archdef: String,
    /// Device catalog name (`xcku5p-like`, ...).
    pub device: String,
    pub command: JobCommand,
    /// How to interpret [`JobSpec::archdef`]. `Archdef` (the default)
    /// keeps the historical wire form and job IDs; `Json`/`Prototxt`
    /// route the text through the `pi-model` importer.
    pub format: ModelFormat,
    /// Flow configuration; carries no telemetry sink (the daemon installs
    /// its own capture per run).
    pub config: FlowConfig,
}

impl JobSpec {
    /// A compose job for `archdef` on `device` under `config`.
    pub fn new(archdef: impl Into<String>, device: impl Into<String>, config: FlowConfig) -> Self {
        JobSpec {
            archdef: archdef.into(),
            device: device.into(),
            command: JobCommand::Compose,
            format: ModelFormat::Archdef,
            config,
        }
    }

    pub fn with_command(mut self, command: JobCommand) -> Self {
        self.command = command;
        self
    }

    pub fn with_format(mut self, format: ModelFormat) -> Self {
        self.format = format;
        self
    }

    /// Replace the cache knobs the daemon owns with the daemon's own
    /// settings, and clear `threads` (scheduling belongs to the daemon's
    /// worker pool / `PI_THREADS`, and never changes results). Run before
    /// [`JobSpec::job_id`] so client-local settings cannot split identical
    /// work onto different IDs.
    pub fn normalized(mut self, db_dir: Option<&Path>, db_budget_bytes: Option<u64>) -> JobSpec {
        self.config.db_dir = db_dir.map(Path::to_path_buf);
        self.config.db_budget_bytes = db_budget_bytes;
        self.config.threads = None;
        self
    }

    /// Deterministic job ID: a stable content hash of the payload (no
    /// wall clock, no counters), rendered as 16 hex digits.
    pub fn job_id(&self) -> String {
        let mut h = StableHasher::new();
        h.write_str(&self.archdef);
        h.write_str(&self.device);
        h.write_str(self.command.as_str());
        // Only non-default formats move the hash, so every archdef job ID
        // minted before descriptor support stays valid.
        if self.format != ModelFormat::Archdef {
            h.write_str(self.format.as_str());
        }
        h.write_str(&self.config.to_json());
        format!("{:016x}", h.finish())
    }

    /// The wire form a client POSTs to `/submit`.
    pub fn to_json(&self) -> String {
        let mut m = Value::Map(Vec::new());
        m["archdef"] = Value::Str(self.archdef.clone());
        m["device"] = Value::Str(self.device.clone());
        m["command"] = Value::Str(self.command.as_str().to_string());
        if self.format != ModelFormat::Archdef {
            m["format"] = Value::Str(self.format.as_str().to_string());
        }
        m["config"] = self.config.to_json_value();
        serde_json::to_string(&m).expect("job spec serializes")
    }

    /// Parse a `/submit` body. Every field except `archdef` is optional:
    /// device defaults to `xcku5p-like`, command to `compose`, config to
    /// [`FlowConfig::default`].
    pub fn from_json(text: &str) -> Result<JobSpec, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("job: {e}"))?;
        let Value::Map(_) = v else {
            return Err("job: expected a JSON object".to_string());
        };
        let archdef = match v.get("archdef") {
            Some(Value::Str(s)) => s.clone(),
            Some(_) => return Err("job: archdef must be a string".to_string()),
            None => return Err("job: missing archdef".to_string()),
        };
        let device = match v.get("device") {
            Some(Value::Str(s)) => s.clone(),
            None => "xcku5p-like".to_string(),
            Some(_) => return Err("job: device must be a string".to_string()),
        };
        let command = match v.get("command") {
            Some(Value::Str(s)) => {
                JobCommand::parse(s).ok_or_else(|| format!("job: unknown command {s:?}"))?
            }
            None => JobCommand::Compose,
            Some(_) => return Err("job: command must be a string".to_string()),
        };
        let format = match v.get("format") {
            Some(Value::Str(s)) => {
                ModelFormat::parse(s).ok_or_else(|| format!("job: unknown format {s:?}"))?
            }
            None => ModelFormat::Archdef,
            Some(_) => return Err("job: format must be a string".to_string()),
        };
        let config = match v.get("config") {
            Some(c) => FlowConfig::from_json_value(c)?,
            None => FlowConfig::default(),
        };
        Ok(JobSpec {
            archdef,
            device,
            command,
            format,
            config,
        })
    }
}

/// What the daemon stores and returns for a finished job. The stored JSON
/// string is served to every client byte-for-byte, so four clients
/// submitting the same job read four identical responses.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    pub job_id: String,
    /// The deterministic one-line outcome (the same line `preimpl
    /// compose` prints first).
    pub summary: String,
    /// Timestamp-stripped JSONL telemetry of the run — feed it straight
    /// to `flowstat summarize`/`diff`.
    pub trace_jsonl: String,
    /// The aggregated `flowstat` run report, rendered.
    pub report_text: String,
    /// Cache interaction of this run against the shared tier.
    pub cache: DbCacheStats,
}

impl JobResult {
    pub fn to_json(&self) -> String {
        let mut cache = Value::Map(Vec::new());
        cache["hits"] = Value::U64(self.cache.hits as u64);
        cache["misses"] = Value::U64(self.cache.misses as u64);
        cache["invalidations"] = Value::U64(self.cache.invalidations as u64);
        cache["evictions"] = Value::U64(self.cache.evictions);
        cache["bytes_loaded"] = Value::U64(self.cache.bytes_loaded);
        let mut m = Value::Map(Vec::new());
        m["job_id"] = Value::Str(self.job_id.clone());
        m["summary"] = Value::Str(self.summary.clone());
        m["cache"] = cache;
        m["trace"] = Value::Str(self.trace_jsonl.clone());
        m["report"] = Value::Str(self.report_text.clone());
        serde_json::to_string(&m).expect("job result serializes")
    }

    pub fn from_json(text: &str) -> Result<JobResult, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("result: {e}"))?;
        let str_field = |k: &str| match v.get(k) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(format!("result: missing string field {k}")),
        };
        let cache_field = |k: &str| match v.get("cache").and_then(|c| c.get(k)) {
            Some(Value::U64(n)) => Ok(*n),
            _ => Err(format!("result: missing cache field {k}")),
        };
        Ok(JobResult {
            job_id: str_field("job_id")?,
            summary: str_field("summary")?,
            trace_jsonl: str_field("trace")?,
            report_text: str_field("report")?,
            cache: DbCacheStats {
                hits: cache_field("hits")? as usize,
                misses: cache_field("misses")? as usize,
                invalidations: cache_field("invalidations")? as usize,
                bytes_loaded: cache_field("bytes_loaded")?,
                evictions: cache_field("evictions")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn spec() -> JobSpec {
        JobSpec::new(
            "network n\ninput 1x8x8\nconv c1 kernel=3 out=2\n",
            "test-part",
            FlowConfig::new().with_seeds([1, 2]),
        )
    }

    #[test]
    fn job_id_is_a_pure_content_hash() {
        assert_eq!(spec().job_id(), spec().job_id());
        assert_eq!(spec().job_id().len(), 16);
        // Every payload field moves the ID.
        let mut other = spec();
        other.archdef.push('\n');
        assert_ne!(other.job_id(), spec().job_id());
        assert_ne!(
            spec().with_command(JobCommand::BuildDb).job_id(),
            spec().job_id()
        );
        let mut cfg_changed = spec();
        cfg_changed.config = cfg_changed.config.with_effort(9.0);
        assert_ne!(cfg_changed.job_id(), spec().job_id());
    }

    #[test]
    fn normalization_erases_client_local_cache_knobs() {
        let mut a = spec();
        a.config = a
            .config
            .clone()
            .with_db_dir("/home/alice/cache")
            .with_threads(8);
        let mut b = spec();
        b.config = b.config.clone().with_db_dir("/home/bob/cache");
        assert_ne!(a.job_id(), b.job_id(), "raw IDs differ");
        let dir = PathBuf::from("/srv/shared");
        assert_eq!(
            a.normalized(Some(&dir), Some(1 << 20)).job_id(),
            b.normalized(Some(&dir), Some(1 << 20)).job_id(),
            "normalized IDs coalesce"
        );
    }

    #[test]
    fn spec_round_trips_through_the_wire_form() {
        let s = spec();
        let back = JobSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back.archdef, s.archdef);
        assert_eq!(back.device, s.device);
        assert_eq!(back.command, s.command);
        assert_eq!(back.job_id(), s.job_id());
    }

    #[test]
    fn minimal_submit_bodies_default_sensibly() {
        let s = JobSpec::from_json("{\"archdef\":\"network x\\n\"}").unwrap();
        assert_eq!(s.device, "xcku5p-like");
        assert_eq!(s.command, JobCommand::Compose);
        assert!(JobSpec::from_json("{}").is_err());
        assert!(JobSpec::from_json("[1,2]").is_err());
        assert!(JobSpec::from_json("{\"archdef\":\"x\",\"command\":\"explode\"}").is_err());
    }

    #[test]
    fn descriptor_formats_ride_the_wire_and_move_the_id() {
        // Default format leaves both the wire body and the job ID exactly
        // as they were before descriptor support existed.
        assert!(!spec().to_json().contains("\"format\""));
        let json_spec = spec().with_format(ModelFormat::Json);
        assert!(json_spec.to_json().contains("\"format\":\"json\""));
        assert_ne!(json_spec.job_id(), spec().job_id());
        let back = JobSpec::from_json(&json_spec.to_json()).unwrap();
        assert_eq!(back.format, ModelFormat::Json);
        assert_eq!(back.job_id(), json_spec.job_id());
        assert!(JobSpec::from_json("{\"archdef\":\"x\",\"format\":\"onnx\"}").is_err());
    }

    #[test]
    fn result_round_trips() {
        let r = JobResult {
            job_id: "abc".to_string(),
            summary: "assembled n: Fmax 400 MHz".to_string(),
            trace_jsonl: "{\"seq\":0}\n".to_string(),
            report_text: "flowstat run report\n".to_string(),
            cache: DbCacheStats {
                hits: 3,
                misses: 1,
                invalidations: 0,
                bytes_loaded: 4096,
                evictions: 2,
            },
        };
        assert_eq!(JobResult::from_json(&r.to_json()).unwrap(), r);
    }
}
