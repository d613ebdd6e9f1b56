pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);
impl<T> RwLock<T> {
    pub fn new(t: T) -> Self { Self(std::sync::RwLock::new(t)) }
}
impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> { self.0.read().unwrap() }
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> { self.0.write().unwrap() }
}
impl<T: Default> Default for RwLock<T> { fn default() -> Self { Self::new(T::default()) } }
impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { self.0.fmt(f) }
}
