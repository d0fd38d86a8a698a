//! Program images and the registry of installable executables.
//!
//! In the real system a remote procedure was a compiled executable sitting
//! at a pathname on some machine (the user typed that pathname into the
//! AVS widget). Here, an executable is a [`ProgramImage`]: the export
//! specification source plus a factory for each exported procedure's
//! implementation. A global [`ProgramRegistry`] maps pathnames to images;
//! *installing* an image on a host writes a marker into that host's
//! virtual file store, so a start request for a path that was never
//! installed on that machine fails exactly like a missing executable.

use std::collections::HashMap;
use std::sync::Arc;

use hetsim::FileStore;
use std::sync::RwLock;
use uts::spec::{Direction, SpecFile};

use crate::error::{SchError, SchResult};
use crate::proc::Procedure;
use crate::stub::CompiledStub;

type Factory = Arc<dyn Fn() -> Box<dyn Procedure> + Send + Sync>;

/// An executable: export specs + procedure factories.
#[derive(Clone)]
pub struct ProgramImage {
    name: String,
    compiled: Arc<Compiled>,
    factories: HashMap<String, Factory>,
}

/// What the stub compiler makes of an image's specification source:
/// built once when the image is created and shared by every clone of it
/// and every process started from it.
struct Compiled {
    spec_src: String,
    spec: SpecFile,
    /// One stub per export, keyed by the name as declared.
    stubs: HashMap<String, Arc<CompiledStub>>,
}

impl std::fmt::Debug for ProgramImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramImage")
            .field("name", &self.name)
            .field("exports", &self.spec().decls.iter().map(|d| &d.name).collect::<Vec<_>>())
            .finish()
    }
}

impl ProgramImage {
    /// Create an image from its export specification source. Every
    /// declaration must be an `export`.
    pub fn new(name: impl Into<String>, spec_src: &str) -> SchResult<Self> {
        let spec = uts::parse_spec_file(spec_src)?;
        for d in &spec.decls {
            if d.direction != Direction::Export {
                return Err(SchError::Other(format!(
                    "program image may contain only exports; '{}' is an import",
                    d.name
                )));
            }
        }
        let mut stubs = HashMap::new();
        for d in &spec.decls {
            // First declaration wins, as in `SpecFile::find`.
            stubs.entry(d.name.clone()).or_insert_with(|| Arc::new(CompiledStub::compile(d)));
        }
        Ok(Self {
            name: name.into(),
            compiled: Arc::new(Compiled { spec_src: spec_src.to_owned(), spec, stubs }),
            factories: HashMap::new(),
        })
    }

    /// Create an image from already-built procedure declarations —
    /// typically rendered from a component's typed `spec()` — instead of
    /// specification source text. Each declaration is forced to `export`
    /// and rendered through [`uts::spec::ProcSpec::to_source`], so the
    /// image's `spec_src` stays a valid specification file that stubs can
    /// be compiled from.
    pub fn from_procs(name: impl Into<String>, procs: &[uts::ProcSpec]) -> SchResult<Self> {
        let src = procs
            .iter()
            .map(|p| {
                let mut p = p.clone();
                p.direction = Direction::Export;
                p.to_source()
            })
            .collect::<Vec<_>>()
            .join("\n");
        Self::new(name, &src)
    }

    /// Attach the implementation factory for an exported procedure.
    pub fn with_procedure(
        mut self,
        proc_name: &str,
        factory: impl Fn() -> Box<dyn Procedure> + Send + Sync + 'static,
    ) -> SchResult<Self> {
        if self.spec().find(proc_name).is_none() {
            return Err(SchError::Other(format!(
                "no export specification for procedure '{proc_name}' in image '{}'",
                self.name
            )));
        }
        self.factories.insert(proc_name.to_owned(), Arc::new(factory));
        Ok(self)
    }

    /// Image name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Export specification source text.
    pub fn spec_src(&self) -> &str {
        &self.compiled.spec_src
    }

    /// Parsed export specifications.
    pub fn spec(&self) -> &SpecFile {
        &self.compiled.spec
    }

    /// The compiled stub of the export declared as `proc_name`.
    pub fn stub(&self, proc_name: &str) -> Option<&Arc<CompiledStub>> {
        self.compiled.stubs.get(proc_name)
    }

    /// Verify every export has an implementation.
    pub fn validate(&self) -> SchResult<()> {
        for d in &self.spec().decls {
            if !self.factories.contains_key(&d.name) {
                return Err(SchError::Other(format!(
                    "export '{}' of image '{}' has no implementation",
                    d.name, self.name
                )));
            }
        }
        Ok(())
    }

    /// Instantiate all procedures (one process's worth of state).
    pub fn instantiate(&self) -> SchResult<HashMap<String, Box<dyn Procedure>>> {
        self.validate()?;
        Ok(self.factories.iter().map(|(name, f)| (name.clone(), f())).collect())
    }
}

/// Global registry of program images, keyed by pathname.
#[derive(Clone, Default)]
pub struct ProgramRegistry {
    inner: Arc<RwLock<HashMap<String, ProgramImage>>>,
}

impl ProgramRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an image under a pathname.
    pub fn register(&self, path: &str, image: ProgramImage) -> SchResult<()> {
        image.validate()?;
        self.inner.write().unwrap().insert(path.to_owned(), image);
        Ok(())
    }

    /// Fetch an image by pathname.
    pub fn get(&self, path: &str) -> Option<ProgramImage> {
        self.inner.read().unwrap().get(path).cloned()
    }

    /// Install the image at `path` onto `host` (writes the executable
    /// marker into the host's file store). Fails if unregistered.
    pub fn install(&self, files: &FileStore, path: &str, host: &str) -> SchResult<()> {
        let image = self.get(path).ok_or_else(|| SchError::UnknownExecutable {
            path: path.to_owned(),
            host: host.to_owned(),
        })?;
        files.write(host, path, format!("#!schooner-image {}", image.name()));
        Ok(())
    }

    /// Resolve a start request on a host: the path must be registered
    /// *and* installed on that host.
    pub fn resolve(&self, files: &FileStore, path: &str, host: &str) -> SchResult<ProgramImage> {
        if !files.exists(host, path) {
            return Err(SchError::UnknownExecutable {
                path: path.to_owned(),
                host: host.to_owned(),
            });
        }
        self.get(path).ok_or_else(|| SchError::UnknownExecutable {
            path: path.to_owned(),
            host: host.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::FnProcedure;
    use uts::Value;

    fn double_image() -> ProgramImage {
        ProgramImage::new("doubler", r#"export double prog("x" val double, "y" res double)"#)
            .unwrap()
            .with_procedure("double", || {
                Box::new(FnProcedure::new(|args: &[Value]| {
                    Ok(vec![Value::Double(args[0].as_f64().unwrap() * 2.0)])
                }))
            })
            .unwrap()
    }

    #[test]
    fn image_builds_and_instantiates() {
        let img = double_image();
        img.validate().unwrap();
        let mut procs = img.instantiate().unwrap();
        let mut out = Vec::new();
        procs.get_mut("double").unwrap().call(&[Value::Double(4.0)], &mut out).unwrap();
        assert_eq!(out, vec![Value::Double(8.0)]);
    }

    #[test]
    fn from_procs_renders_a_parsable_spec() {
        use uts::spec::{Direction, Parameter, ProcSpec};
        use uts::{ParamMode, Type};

        let proc = ProcSpec {
            direction: Direction::Import, // forced to export by from_procs
            name: "compute".into(),
            params: vec![
                Parameter { name: "x".into(), mode: ParamMode::Val, ty: Type::Double },
                Parameter { name: "y".into(), mode: ParamMode::Res, ty: Type::Double },
            ],
            state: vec![("k".into(), Type::Double)],
        };
        let img = ProgramImage::from_procs("from-spec", &[proc])
            .unwrap()
            .with_procedure("compute", || {
                Box::new(FnProcedure::new(|args: &[Value]| {
                    Ok(vec![Value::Double(args[0].as_f64().unwrap() + 1.0)])
                }))
            })
            .unwrap();
        img.validate().unwrap();
        assert!(img.spec_src().contains("state(\"k\" double)"), "{}", img.spec_src());
        let parsed = uts::parse_spec_file(img.spec_src()).unwrap();
        assert_eq!(parsed.decls[0].direction, Direction::Export);
    }

    #[test]
    fn image_rejects_import_declarations() {
        let err = ProgramImage::new("x", r#"import f prog("a" val double)"#).unwrap_err();
        assert!(err.to_string().contains("import"));
    }

    #[test]
    fn image_rejects_unknown_procedure_attachment() {
        let img = ProgramImage::new("x", "export f prog()").unwrap();
        assert!(img.with_procedure("g", || Box::new(FnProcedure::new(|_| Ok(vec![])))).is_err());
    }

    #[test]
    fn validate_catches_missing_implementation() {
        let img = ProgramImage::new("x", "export f prog()\nexport g prog()")
            .unwrap()
            .with_procedure("f", || Box::new(FnProcedure::new(|_| Ok(vec![]))))
            .unwrap();
        let err = img.validate().unwrap_err();
        assert!(err.to_string().contains('g'));
    }

    #[test]
    fn registry_requires_installation_per_host() {
        let reg = ProgramRegistry::new();
        let files = FileStore::new();
        reg.register("/npss/doubler", double_image()).unwrap();
        // Registered but not installed anywhere.
        assert!(reg.resolve(&files, "/npss/doubler", "hostA").is_err());
        reg.install(&files, "/npss/doubler", "hostA").unwrap();
        assert!(reg.resolve(&files, "/npss/doubler", "hostA").is_ok());
        assert!(reg.resolve(&files, "/npss/doubler", "hostB").is_err());
    }

    #[test]
    fn install_of_unregistered_path_fails() {
        let reg = ProgramRegistry::new();
        let files = FileStore::new();
        assert!(matches!(
            reg.install(&files, "/ghost", "hostA"),
            Err(SchError::UnknownExecutable { .. })
        ));
    }

    #[test]
    fn each_instantiation_is_independent_state() {
        let img = ProgramImage::new("counter", r#"export count prog("n" res integer)"#)
            .unwrap()
            .with_procedure("count", || {
                let mut n = 0i64;
                Box::new(FnProcedure::new(move |_args: &[Value]| {
                    n += 1;
                    Ok(vec![Value::Integer(n)])
                }))
            })
            .unwrap();

        let mut a = img.instantiate().unwrap();
        let mut b = img.instantiate().unwrap();
        let mut out = Vec::new();
        a.get_mut("count").unwrap().call(&[], &mut out).unwrap();
        out.clear();
        a.get_mut("count").unwrap().call(&[], &mut out).unwrap();
        assert_eq!(out, vec![Value::Integer(2)]);
        out.clear();
        b.get_mut("count").unwrap().call(&[], &mut out).unwrap();
        assert_eq!(out, vec![Value::Integer(1)], "instances must not share state");
    }
}
