//! Per-host virtual file stores.
//!
//! Each machine in the real testbed had its own filesystem holding the
//! remote procedure executables and component data files (the compressor
//! and turbine performance maps selected through the AVS browser widget).
//! This virtual store preserves the *locality* property: a file written on
//! one host is not visible from another, so "the most convenient place to
//! locate data files" remains a real placement consideration.

use std::collections::HashMap;
use std::sync::Arc;

use std::sync::RwLock;

type FileMap = HashMap<(String, String), Arc<Vec<u8>>>;

/// A shared file store covering every host; lookups are (host, path).
#[derive(Clone, Default)]
pub struct FileStore {
    inner: Arc<RwLock<FileMap>>,
}

impl FileStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write (or overwrite) a file on `host` at `path`.
    pub fn write(&self, host: &str, path: &str, contents: impl Into<Vec<u8>>) {
        self.inner
            .write()
            .unwrap()
            .insert((host.to_owned(), path.to_owned()), Arc::new(contents.into()));
    }

    /// Read a file from `host` at `path`.
    pub fn read(&self, host: &str, path: &str) -> Option<Arc<Vec<u8>>> {
        self.inner.read().unwrap().get(&(host.to_owned(), path.to_owned())).cloned()
    }

    /// True when the file exists on that host.
    pub fn exists(&self, host: &str, path: &str) -> bool {
        self.inner.read().unwrap().contains_key(&(host.to_owned(), path.to_owned()))
    }

    /// Remove a file; returns whether it existed.
    pub fn remove(&self, host: &str, path: &str) -> bool {
        self.inner.write().unwrap().remove(&(host.to_owned(), path.to_owned())).is_some()
    }

    /// List paths on a host (sorted), like a directory browser widget.
    pub fn list(&self, host: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .inner
            .read()
            .unwrap()
            .keys()
            .filter(|(h, _)| h == host)
            .map(|(_, p)| p.clone())
            .collect();
        v.sort();
        v
    }

    /// Copy a file from one host to another (the "move the data with the
    /// computation" step of migration). Returns false when missing.
    pub fn copy(&self, from_host: &str, path: &str, to_host: &str) -> bool {
        let contents = match self.read(from_host, path) {
            Some(c) => c,
            None => return false,
        };
        self.inner.write().unwrap().insert((to_host.to_owned(), path.to_owned()), contents);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_are_host_local() {
        let fs = FileStore::new();
        fs.write("a", "/maps/fan.map", "fan data");
        assert!(fs.exists("a", "/maps/fan.map"));
        assert!(!fs.exists("b", "/maps/fan.map"));
        assert_eq!(fs.read("a", "/maps/fan.map").unwrap().as_slice(), b"fan data");
        assert!(fs.read("b", "/maps/fan.map").is_none());
    }

    #[test]
    fn overwrite_replaces() {
        let fs = FileStore::new();
        fs.write("a", "/f", "v1");
        fs.write("a", "/f", "v2");
        assert_eq!(fs.read("a", "/f").unwrap().as_slice(), b"v2");
    }

    #[test]
    fn list_is_sorted_and_per_host() {
        let fs = FileStore::new();
        fs.write("a", "/z", "");
        fs.write("a", "/m", "");
        fs.write("b", "/q", "");
        assert_eq!(fs.list("a"), vec!["/m".to_owned(), "/z".to_owned()]);
        assert_eq!(fs.list("b"), vec!["/q".to_owned()]);
        assert!(fs.list("c").is_empty());
    }

    #[test]
    fn remove_and_copy() {
        let fs = FileStore::new();
        fs.write("a", "/f", "data");
        assert!(fs.copy("a", "/f", "b"));
        assert!(fs.exists("b", "/f"));
        assert!(fs.remove("a", "/f"));
        assert!(!fs.remove("a", "/f"));
        assert!(!fs.copy("a", "/f", "c"), "source gone");
        assert_eq!(fs.read("b", "/f").unwrap().as_slice(), b"data");
    }

    #[test]
    fn binary_contents_round_trip() {
        let fs = FileStore::new();
        let data = vec![0u8, 255, 128, 7];
        fs.write("a", "/bin", data.clone());
        assert_eq!(fs.read("a", "/bin").unwrap().as_ref(), &data);
    }
}
