pub struct Store;

impl Store {
    fn fill(&self) {
        let _plan = self.plan.lock();
        let mut buf = [0u8; 16];
        let _ = self.src.read(&mut buf);
    }

    fn scan(&self) {
        let _src = self.src.read();
        let _plan = self.plan.lock();
    }
}
